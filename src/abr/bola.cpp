#include "abr/bola.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "media/video.hpp"
#include "util/assert.hpp"

namespace bba::abr {

namespace {

// The guard below evaluates the objective in long double and must see
// rounding well below the double rounding it bounds.
static_assert(std::numeric_limits<long double>::digits >= 64,
              "BOLA's band guard needs an extended long double");

// The scan computes fl(fl(N - B) / S): two roundings of unit 2^-53, so its
// error is at most 2.0001 * 2^-53 * |(N - B) / S|. The guard's own
// long-double rounding (unit 2^-64, a few operations) is absorbed by the
// factor 1 + 2^-8 on that bound; kAbsErr covers a subnormal quotient of
// either objective, and kFinite keeps every double intermediate finite.
constexpr long double kRelErr = 2.0001L * 0x1p-53L * (1.0L + 0x1p-8L);
constexpr long double kAbsErr = 0x1p-1073L;
constexpr long double kFinite = 0x1p1023L;

/// Whether the scan provably picks `w` at buffer `b`: w's exact objective
/// beats every other rendition's by more than both rounding errors, so the
/// computed values order the same way.
bool proves(const std::vector<double>& numerator,
            const std::vector<double>& size, std::size_t w, double b) {
  auto exact = [&](std::size_t m, long double* v) {
    const long double diff =
        static_cast<long double>(numerator[m]) - static_cast<long double>(b);
    *v = diff / static_cast<long double>(size[m]);
    return std::fabs(diff) < kFinite && std::fabs(*v) < kFinite;
  };
  long double vw = 0.0L;
  if (!exact(w, &vw)) return false;
  for (std::size_t m = 0; m < numerator.size(); ++m) {
    if (m == w) continue;
    long double vm = 0.0L;
    if (!exact(m, &vm)) return false;
    if (!(vw - vm > kRelErr * (std::fabs(vw) + std::fabs(vm)) + kAbsErr)) {
      return false;
    }
  }
  return true;
}

/// The proven buffer furthest from `good` (proven) towards `bad` (not),
/// bisected on the bit patterns of non-negative doubles, which order as
/// their values do.
template <typename Proven>
double bisect(double good, double bad, const Proven& proven) {
  std::uint64_t g = std::bit_cast<std::uint64_t>(good);
  std::uint64_t b = std::bit_cast<std::uint64_t>(bad);
  while (g + 1 < b || b + 1 < g) {
    const std::uint64_t mid = g < b ? g + (b - g) / 2 : b + (g - b) / 2;
    if (proven(std::bit_cast<double>(mid))) {
      g = mid;
    } else {
      b = mid;
    }
  }
  return std::bit_cast<double>(g);
}

/// The bands of the objectives (numerator[m] - B) / size[m] on
/// [0, domain_s], in ascending order. Each objective is affine in B, so
/// for a fixed winner w the exact margin over each rival minus the
/// rounding bound is concave in B; positive at both ends of an interval,
/// it is positive throughout, and the set where it is positive is itself
/// an interval. Probing the domain ends, every pairwise crossing and the
/// midpoints between them finds a proven point of every winner whose
/// interval is not vanishingly short; bisection then extends it to its
/// last proven buffer on either side. The probes ascend and the bands are
/// disjoint, so the bands come out ascending.
std::vector<BolaAbr::Band> build_bands(const std::vector<double>& numerator,
                                       const std::vector<double>& size,
                                       double domain_s) {
  const std::size_t n = numerator.size();
  std::vector<double> crossings;
  crossings.reserve(2 + n * (n - 1) / 2);
  crossings.push_back(0.0);
  crossings.push_back(domain_s);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t c = a + 1; c < n; ++c) {
      if (size[a] == size[c]) continue;  // parallel: they never cross
      const long double x =
          (static_cast<long double>(numerator[a]) * size[c] -
           static_cast<long double>(numerator[c]) * size[a]) /
          (static_cast<long double>(size[c]) - size[a]);
      if (x > 0.0L && x < domain_s) {
        crossings.push_back(static_cast<double>(x));
      }
    }
  }
  std::sort(crossings.begin(), crossings.end());

  std::vector<BolaAbr::Band> bands;
  bands.reserve(n);
  auto probe = [&](double p) {
    for (std::size_t w = 0; w < n; ++w) {
      if (!proves(numerator, size, w, p)) continue;
      for (const BolaAbr::Band& band : bands) {
        if (band.winner == w) return;
      }
      auto proven = [&](double b) { return proves(numerator, size, w, b); };
      BolaAbr::Band band;
      band.winner = w;
      band.lower_s = proven(0.0) ? 0.0 : bisect(p, 0.0, proven);
      band.upper_s = proven(domain_s) ? domain_s : bisect(p, domain_s, proven);
      bands.push_back(band);
      return;  // no other rendition can be proven at p
    }
  };
  probe(crossings[0]);
  for (std::size_t i = 1; i < crossings.size(); ++i) {
    probe(crossings[i - 1] + (crossings[i] - crossings[i - 1]) / 2);
    probe(crossings[i]);
  }
  return bands;
}

}  // namespace

BolaAbr::BolaAbr(BolaConfig cfg) : cfg_(cfg) {
  BBA_ASSERT(cfg_.min_threshold_s > 0.0 &&
                 cfg_.max_threshold_s > cfg_.min_threshold_s,
             "BOLA thresholds must satisfy 0 < min < max");
}

void BolaAbr::bind(const media::Video& video) const {
  const auto& chunks = video.chunks();
  const std::size_t n = video.ladder().size();
  auto same_title = [&](const Title& title) {
    if (title.size.size() != n) return false;
    for (std::size_t m = 0; m < n; ++m) {
      if (title.size[m] != chunks.mean_size_bits(m)) return false;
    }
    return true;
  };
  bound_video_ = &video;
  last_ = &kNoBand;
  for (const auto& title : titles_) {
    if (same_title(*title)) {
      bound_ = title.get();
      return;
    }
  }

  // Each term is the expression the per-call objective used to evaluate,
  // in the same order, so decisions are bit-identical.
  auto utility = [&](std::size_t m) {
    return 1.0 + std::log(chunks.mean_size_bits(m) / chunks.mean_size_bits(0));
  };
  const double u_top = utility(video.ladder().max_index());
  // dash.js parameterization: gp fixes the spread of the per-rendition
  // buffer bands; Vp scales them so the lowest band starts at the minimum
  // threshold.
  const double gp =
      u_top > 1.0
          ? (u_top - 1.0) /
                (cfg_.max_threshold_s / cfg_.min_threshold_s - 1.0)
          : 1.0;
  const double vp = cfg_.min_threshold_s / gp;
  auto title = std::make_unique<Title>();
  title->numerator.resize(n);
  title->size.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    title->numerator[m] = vp * (utility(m) + gp);
    title->size[m] = chunks.mean_size_bits(m);
  }
  title->bands = build_bands(title->numerator, title->size, kBandDomainS);
  bound_ = title.get();
  titles_.push_back(std::move(title));
}

double BolaAbr::objective(const Observation& obs, std::size_t m) const {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  if (obs.video != bound_video_) bind(*obs.video);
  return (bound_->numerator[m] - obs.buffer_s) / bound_->size[m];
}

}  // namespace bba::abr
