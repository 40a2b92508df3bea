// Tests for the BOLA baseline (forward-looking buffer-based comparison).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "abr/bola.hpp"
#include "alloc_budget.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bba::abr {
namespace {

using util::kbps;
using util::mbps;

const media::Video& cbr_video() {
  static const media::Video v = media::make_cbr_video(
      "t", media::EncodingLadder::netflix_2013(), 900, 4.0);
  return v;
}

Observation obs_for(const media::Video& video, double buffer_s) {
  Observation obs;
  obs.chunk_index = 10;
  obs.buffer_s = buffer_s;
  obs.buffer_max_s = 240.0;
  obs.prev_rate_index = 0;
  obs.playing = true;
  obs.video = &video;
  return obs;
}

Observation obs_at(double buffer_s) { return obs_for(cbr_video(), buffer_s); }

TEST(Bola, PicksRminAtEmptyBuffer) {
  BolaAbr bola;
  EXPECT_EQ(bola.choose_rate(obs_at(0.0)), 0u);
  EXPECT_EQ(bola.choose_rate(obs_at(5.0)), 0u);
}

TEST(Bola, PicksRmaxAtFullBuffer) {
  BolaAbr bola;
  EXPECT_EQ(bola.choose_rate(obs_at(240.0)),
            cbr_video().ladder().max_index());
}

TEST(Bola, ChoiceIsMonotoneInBuffer) {
  // The Lyapunov objective induces a monotone buffer-to-rate map -- the
  // same family the paper's Sec. 3 characterizes.
  BolaAbr bola;
  std::size_t prev = 0;
  for (double b = 0.0; b <= 240.0; b += 1.0) {
    const std::size_t pick = bola.choose_rate(obs_at(b));
    EXPECT_GE(pick, prev) << "buffer " << b;
    prev = pick;
  }
  EXPECT_EQ(prev, cbr_video().ladder().max_index());
}

TEST(Bola, ObjectivePerByteStructure) {
  // At low buffer the smallest rendition has the best per-byte value; at
  // high buffer the largest does.
  BolaAbr bola;
  EXPECT_GT(bola.objective(obs_at(0.0), 0),
            bola.objective(obs_at(0.0), 8));
  EXPECT_LT(bola.objective(obs_at(239.0), 0),
            bola.objective(obs_at(239.0), 8));
}

TEST(Bola, ThresholdsShiftTheMap) {
  BolaConfig eager;
  eager.min_threshold_s = 6.0;
  eager.max_threshold_s = 60.0;
  BolaAbr fast(eager);
  BolaAbr stock;
  // At a mid buffer the eager configuration picks a higher rendition.
  EXPECT_GT(fast.choose_rate(obs_at(50.0)), stock.choose_rate(obs_at(50.0)));
}

TEST(Bola, NoUnnecessaryRebufferEndToEnd) {
  // As a monotone buffer-based map pinned at R_min near empty, BOLA
  // inherits the Sec. 3 guarantee.
  BolaAbr bola;
  const net::CapacityTrace trace({{30.0, kbps(260)}, {30.0, mbps(8)}});
  sim::PlayerConfig player;
  player.watch_duration_s = 1800.0;
  const sim::SessionResult r =
      sim::simulate_session(cbr_video(), trace, bola, player);
  EXPECT_TRUE(r.rebuffers.empty());
}

TEST(Bola, TracksCapacityOnConstantLink) {
  BolaAbr bola;
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(2.5));
  sim::PlayerConfig player;
  player.watch_duration_s = 2400.0;
  const sim::SessionMetrics m = sim::compute_metrics(
      sim::simulate_session(cbr_video(), trace, bola, player));
  EXPECT_EQ(m.rebuffer_count, 0);
  EXPECT_GT(m.steady_rate_bps, kbps(1500));
  EXPECT_LE(m.steady_rate_bps, mbps(2.5));
}

TEST(Bola, NameIsStable) { EXPECT_EQ(BolaAbr().name(), "bola"); }

// --- Buffer bands against the scan ----------------------------------------

/// A one-chunk title whose mean chunk sizes are exactly `means` (bits), in
/// ladder order; they need not increase with the rate.
media::Video title_with_means(const std::vector<double>& means) {
  std::vector<double> rates;
  std::vector<std::vector<double>> sizes;
  for (std::size_t m = 0; m < means.size(); ++m) {
    rates.push_back(kbps(100.0 * static_cast<double>(m + 1)));
    sizes.push_back({means[m]});
  }
  return media::Video("means", media::EncodingLadder(rates),
                      media::ChunkTable(sizes, 4.0));
}

/// The objective's per-title terms, restated from BOLA-BASIC's dash.js
/// parameterization: objective(m) = (numerator[m] - B) / size[m].
struct Terms {
  std::vector<double> numerator;
  std::vector<double> size;
};

Terms terms_of(const media::Video& video, const BolaConfig& cfg) {
  const media::ChunkTable& chunks = video.chunks();
  const std::size_t n = video.ladder().size();
  auto utility = [&](std::size_t m) {
    return 1.0 + std::log(chunks.mean_size_bits(m) / chunks.mean_size_bits(0));
  };
  const double u_top = utility(n - 1);
  const double gp =
      u_top > 1.0
          ? (u_top - 1.0) / (cfg.max_threshold_s / cfg.min_threshold_s - 1.0)
          : 1.0;
  const double vp = cfg.min_threshold_s / gp;
  Terms t;
  for (std::size_t m = 0; m < n; ++m) {
    t.numerator.push_back(vp * (utility(m) + gp));
    t.size.push_back(chunks.mean_size_bits(m));
  }
  return t;
}

/// Compares choose_rate with the first-max argmax of objective() and
/// keeps the first disagreement.
struct ScanCheck {
  ScanCheck(BolaAbr& b, const media::Video& v) : bola(b), video(v) {}

  BolaAbr& bola;
  const media::Video& video;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first;

  void at(double buffer_s) {
    const Observation obs = obs_for(video, buffer_s);
    std::size_t best = 0;
    double best_value = bola.objective(obs, 0);
    for (std::size_t m = 1; m < video.ladder().size(); ++m) {
      const double value = bola.objective(obs, m);
      if (value > best_value) {
        best_value = value;
        best = m;
      }
    }
    const std::size_t pick = bola.choose_rate(obs);
    ++checked;
    if (pick != best && mismatches++ == 0) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "buffer %a: choose_rate %zu, scan %zu",
                    buffer_s, pick, best);
      first = buf;
    }
  }

  /// `x` and the 64 doubles on either side of it.
  void around(double x) {
    at(x);
    double down = x;
    double up = x;
    for (int i = 0; i < 64; ++i) {
      down = std::nextafter(down, -std::numeric_limits<double>::infinity());
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      at(down);
      at(up);
    }
  }
};

/// Runs every buffer class against the scan for one title and config:
/// `uniform` uniform buffers in [0, 300] s, every band edge and every exact
/// pairwise crossing of the objectives +-64 ulps, 0 and buffer_max_s.
/// Returns the number of bands, so callers can see the table was used.
std::size_t expect_bands_match_scan(const media::Video& video,
                                    const BolaConfig& cfg,
                                    std::size_t uniform, util::Rng& rng) {
  BolaAbr bola(cfg);
  ScanCheck check(bola, video);
  const Terms t = terms_of(video, cfg);
  const std::size_t n = t.size.size();
  for (const double b : {0.0, 7.5, 240.0}) {
    for (std::size_t m = 0; m < n; ++m) {
      EXPECT_EQ(bola.objective(obs_for(video, b), m),
                (t.numerator[m] - b) / t.size[m])
          << "terms of rendition " << m << " at buffer " << b;
    }
  }

  for (std::size_t i = 0; i < uniform; ++i) check.at(rng.uniform(0.0, 300.0));
  const std::vector<BolaAbr::Band> bands = bola.bands(video);
  for (std::size_t k = 0; k < bands.size(); ++k) {
    EXPECT_LE(bands[k].lower_s, bands[k].upper_s);
    EXPECT_LT(bands[k].winner, n);
    // choose_rate's count of lower edges needs ascending, disjoint bands.
    if (k > 0) {
      EXPECT_LT(bands[k - 1].upper_s, bands[k].lower_s) << k;
    }
    check.around(bands[k].lower_s);
    check.around(bands[k].upper_s);
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t c = a + 1; c < n; ++c) {
      if (t.size[a] == t.size[c]) continue;
      const long double x =
          (static_cast<long double>(t.numerator[a]) * t.size[c] -
           static_cast<long double>(t.numerator[c]) * t.size[a]) /
          (static_cast<long double>(t.size[c]) - t.size[a]);
      if (std::isfinite(static_cast<double>(x))) {
        check.around(static_cast<double>(x));
      }
    }
  }
  check.at(0.0);
  check.at(240.0);  // buffer_max_s of every observation here

  EXPECT_EQ(check.mismatches, 0u)
      << check.mismatches << " of " << check.checked
      << " decisions differ from the scan; first: " << check.first;
  return bands.size();
}

TEST(BolaBands, StandardLibraryMatchesScan) {
  util::Rng rng(2014);
  const media::VideoLibrary library = media::VideoLibrary::standard(2014);
  for (std::size_t i = 0; i < library.size(); ++i) {
    EXPECT_EQ(expect_bands_match_scan(library.at(i), BolaConfig{}, 100000,
                                      rng),
              library.at(i).ladder().size());
  }
}

TEST(BolaBands, SecondLadderAndTightThresholdsMatchScan) {
  util::Rng rng(1729);
  BolaConfig cfg;
  cfg.min_threshold_s = 6.0;
  cfg.max_threshold_s = 120.0;
  const media::VideoLibrary library = media::VideoLibrary::standard(
      2014, media::EncodingLadder::netflix_2013_rmin560());
  for (std::size_t i = 0; i < library.size(); ++i) {
    EXPECT_GT(expect_bands_match_scan(library.at(i), cfg, 100000, rng), 0u);
  }
}

TEST(BolaBands, RandomLaddersAndConfigsMatchScan) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_u64() % 12;
    std::vector<double> means = {rng.uniform(1e5, 2e6)};
    for (std::size_t m = 1; m < n; ++m) {
      means.push_back(means.back() * rng.uniform(1.01, 2.5));
    }
    BolaConfig cfg;
    cfg.min_threshold_s = rng.uniform(1.0, 30.0);
    cfg.max_threshold_s = cfg.min_threshold_s * rng.uniform(1.5, 30.0);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_bands_match_scan(title_with_means(means), cfg, 2000, rng);
  }
}

TEST(BolaBands, NearlyEqualSizesMatchScan) {
  // Two renditions whose mean sizes differ by 1e-12 relative: their
  // objectives nearly coincide, so rounding decides a wide stretch of
  // buffers and the scan must decide it.
  util::Rng rng(3);
  const double s = 1.5e6;
  expect_bands_match_scan(title_with_means({4e5, s, s * (1.0 + 1e-12), 4e6}),
                          BolaConfig{}, 100000, rng);
  expect_bands_match_scan(title_with_means({s, s * (1.0 + 1e-12)}),
                          BolaConfig{}, 100000, rng);
}

TEST(BolaBands, OneRenditionIsOneBand) {
  util::Rng rng(4);
  const media::Video video = title_with_means({1e6});
  EXPECT_EQ(expect_bands_match_scan(video, BolaConfig{}, 100000, rng), 1u);
  BolaAbr bola;
  ASSERT_EQ(bola.bands(video).size(), 1u);
  EXPECT_EQ(bola.bands(video)[0].lower_s, 0.0);
  EXPECT_EQ(bola.bands(video)[0].upper_s, BolaAbr::kBandDomainS);
}

TEST(BolaBands, NonIncreasingMeansMatchScan) {
  util::Rng rng(5);
  expect_bands_match_scan(title_with_means({2e6, 1e6, 1e6 * 0.999, 5e5}),
                          BolaConfig{}, 100000, rng);
  expect_bands_match_scan(title_with_means({8e5, 3e6, 1.2e6, 2.5e6, 9e5}),
                          BolaConfig{}, 100000, rng);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.next_u64() % 8;
    std::vector<double> means;
    for (std::size_t m = 0; m < n; ++m) means.push_back(rng.uniform(1e5, 5e6));
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_bands_match_scan(title_with_means(means), BolaConfig{}, 2000, rng);
  }
}

TEST(BolaBands, BuffersOutsideTheDomainUseTheScan) {
  util::Rng rng(6);
  const media::Video& video = cbr_video();
  BolaAbr bola;
  ScanCheck check(bola, video);
  for (const double b : {-1.0, BolaAbr::kBandDomainS,
                         std::nextafter(BolaAbr::kBandDomainS, 1e300), 1e9,
                         std::numeric_limits<double>::infinity()}) {
    check.at(b);
  }
  EXPECT_EQ(check.mismatches, 0u) << check.first;
}

TEST(BolaBands, NewTitleAtAReusedAddress) {
  // A Video destroyed and replaced by a different one at the same address:
  // the session start's reset() unbinds the address, and the bands are
  // found by content, so the second title's sessions equal a fresh
  // instance's.
  const net::CapacityTrace trace(
      {{40.0, kbps(700)}, {40.0, mbps(3)}, {40.0, kbps(1200)},
       {40.0, mbps(6)}});
  sim::PlayerConfig player;
  player.watch_duration_s = 1200.0;
  // Two titles on one ladder: the same number of renditions, different
  // mean chunk sizes.
  const media::VideoLibrary library = media::VideoLibrary::standard(2014);
  const media::Video& first = library.at(0);
  const media::Video& second = library.at(3);
  ASSERT_EQ(first.ladder().size(), second.ladder().size());

  std::optional<media::Video> slot;
  BolaAbr reused;
  slot.emplace(first);
  const media::Video* address = &*slot;
  const sim::SessionResult warm =
      sim::simulate_session(*slot, trace, reused, player);
  slot.reset();
  slot.emplace(second);
  ASSERT_EQ(&*slot, address);
  const sim::SessionResult got =
      sim::simulate_session(*slot, trace, reused, player);

  BolaAbr fresh;
  const sim::SessionResult want =
      sim::simulate_session(second, trace, fresh, player);
  ASSERT_EQ(got.chunks.size(), want.chunks.size());
  for (std::size_t i = 0; i < got.chunks.size(); ++i) {
    EXPECT_EQ(got.chunks[i].rate_index, want.chunks[i].rate_index) << i;
    EXPECT_EQ(got.chunks[i].buffer_after_s, want.chunks[i].buffer_after_s)
        << i;
  }
  EXPECT_FALSE(warm.chunks.empty());

  // The reused instance holds the second title's terms and bands, not the
  // first's.
  const Terms t = terms_of(second, BolaConfig{});
  for (std::size_t m = 0; m < t.size.size(); ++m) {
    EXPECT_EQ(reused.objective(obs_for(*slot, 60.0), m),
              (t.numerator[m] - 60.0) / t.size[m])
        << m;
  }
  const std::vector<BolaAbr::Band> got_bands = reused.bands(*slot);
  const std::vector<BolaAbr::Band>& want_bands = fresh.bands(second);
  ASSERT_EQ(got_bands.size(), want_bands.size());
  for (std::size_t i = 0; i < got_bands.size(); ++i) {
    EXPECT_EQ(got_bands[i].lower_s, want_bands[i].lower_s) << i;
    EXPECT_EQ(got_bands[i].upper_s, want_bands[i].upper_s) << i;
    EXPECT_EQ(got_bands[i].winner, want_bands[i].winner) << i;
  }
}

TEST(BolaBands, SessionsAllocateNothingOnceEveryTitleIsSeen) {
  const media::VideoLibrary library = media::VideoLibrary::standard(2014);
  const net::CapacityTrace trace(
      {{40.0, kbps(700)}, {40.0, mbps(3)}, {40.0, kbps(1200)},
       {40.0, mbps(6)}});
  sim::PlayerConfig player;
  player.watch_duration_s = 1200.0;
  sim::StreamingMetricsSink sink;
  BolaAbr bola;
  std::size_t first_sight = 0;
  {
    // The first session of each title builds its bands.
    testing_support::AllocationBudget budget(
        testing_support::AllocationBudget::kUnbounded);
    for (std::size_t i = 0; i < library.size(); ++i) {
      sim::simulate_session(library.at(i), trace, bola, player, sink);
    }
    first_sight = budget.count();
  }
  EXPECT_GT(first_sight, 0u);

  testing_support::AllocationBudget budget(0);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = library.size(); i-- > 0;) {
      sim::simulate_session(library.at(i), trace, bola, player, sink);
    }
  }
  EXPECT_EQ(budget.count(), 0u);
}

}  // namespace
}  // namespace bba::abr
