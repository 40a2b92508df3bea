// BOLA: a later buffer-based algorithm, included as a forward-looking
// comparison point.
//
// Spiteri, Urgaonkar, Sitaraman, "BOLA: Near-Optimal Bitrate Adaptation
// for Online Videos" (INFOCOM 2016) formalized the buffer-based idea this
// paper pioneered as Lyapunov drift-plus-penalty optimization: each chunk,
// pick the rendition m maximizing
//
//     (V * (utility_m + gamma*p) - Q) / S_m
//
// where Q is the buffer in chunks, S_m the chunk size, utility_m =
// ln(S_m / S_min), and V, gamma*p are derived from the buffer target. The
// result is again a monotone buffer-to-rate map -- independent support for
// the paper's thesis. This is BOLA-BASIC on nominal chunk sizes.
//
// Decisions read that map off the buffer directly. Once per distinct title
// (keyed by the ladder's mean chunk sizes, the objective's only per-title
// inputs) the buffer axis is cut into bands, each a buffer interval on
// which one rendition's objective beats every other's by more than the
// rounding error of the computed values. A decision finds the band that
// holds the buffer; only a buffer within rounding distance of a crossing,
// or outside [0, kBandDomainS], runs the scan. Every pick therefore equals
// the scan's, bit for bit (docs/perf.md, "BOLA from buffer bands").
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "abr/abr.hpp"
#include "util/assert.hpp"

namespace bba::abr {

/// BOLA-BASIC tuning.
struct BolaConfig {
  /// Buffer level (seconds) at which the top rendition becomes optimal.
  /// Together with `min_threshold_s` this determines V and gamma*p.
  double max_threshold_s = 216.0;

  /// Buffer level at which the lowest rendition is chosen.
  double min_threshold_s = 12.0;
};

/// The per-chunk decision is defined inline below so the fused session
/// player (sim::simulate) inlines it into its chunk loop; the band table is
/// built out of line, once per title an instance meets.
class BolaAbr final : public RateAdaptation {
 public:
  /// A closed buffer interval [lower_s, upper_s] on which the scan
  /// provably picks `winner`.
  struct Band {
    double lower_s = 0.0;
    double upper_s = 0.0;
    std::size_t winner = 0;
  };

  /// Bands lie within [0, kBandDomainS] seconds of buffer; a buffer
  /// outside it is decided by the scan.
  static constexpr double kBandDomainS = 65536.0;

  explicit BolaAbr(BolaConfig cfg = {});

  std::size_t choose_rate(const Observation& obs) override;
  /// Unbinds the title: a new session may stream another one (possibly a
  /// new Video object at a reused address). Binding looks the title up by
  /// content, so the bands of every title already seen are kept.
  void reset() override { bound_video_ = nullptr; }
  std::string name() const override { return "bola"; }

  /// The drift-plus-penalty objective for rendition `m` at buffer level
  /// `buffer_s` (exposed for tests): higher is better; negative for every
  /// m means "do not download yet" and maps to holding at R_min here.
  double objective(const Observation& obs, std::size_t m) const;

  /// `video`'s bands in ascending buffer order (exposed for tests).
  const std::vector<Band>& bands(const media::Video& video) const {
    bind(video);
    return bound_->bands;
  }

 private:
  /// One title's prepared terms. numerator[m] = Vp * (utility_m + gp) and
  /// size[m] = S_m depend only on the ladder's mean chunk sizes, which
  /// `size` holds and which key the cache.
  struct Title {
    std::vector<double> numerator;
    std::vector<double> size;
    std::vector<Band> bands;
  };

  /// Points bound_ at `video`'s title, building it on first sight.
  void bind(const media::Video& video) const;

  /// Matches no buffer: last_ of a title without bands.
  static constexpr Band kNoBand = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 0};

  /// The reference decision: the first rendition of maximal objective.
  static std::size_t scan(const Title& title, double buffer_s);

  BolaConfig cfg_;
  // A cache behind the const objective() and bands(), hence mutable.
  // unique_ptr keeps bound_ valid while titles_ grows.
  mutable std::vector<std::unique_ptr<const Title>> titles_;
  mutable const media::Video* bound_video_ = nullptr;
  mutable const Title* bound_ = nullptr;
  // The band of the last banded decision. The buffer moves little from
  // one chunk to the next, so it usually holds the next buffer too; any
  // band of the bound title is a proof, so this is only a first guess.
  mutable const Band* last_ = &kNoBand;
};

inline std::size_t BolaAbr::scan(const Title& title, double buffer_s) {
  const std::size_t n = title.numerator.size();
  std::size_t best = 0;
  double best_value = (title.numerator[0] - buffer_s) / title.size[0];
  for (std::size_t m = 1; m < n; ++m) {
    const double value = (title.numerator[m] - buffer_s) / title.size[m];
    if (value > best_value) {
      best_value = value;
      best = m;
    }
  }
  return best;
}

inline std::size_t BolaAbr::choose_rate(const Observation& obs) {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  if (obs.video != bound_video_) bind(*obs.video);
  const double buffer_s = obs.buffer_s;
  if (last_->lower_s <= buffer_s && buffer_s <= last_->upper_s) {
    return last_->winner;
  }
  const std::vector<Band>& bands = bound_->bands;
  std::size_t below = 0;
  for (const Band& band : bands) below += band.lower_s <= buffer_s;
  if (below != 0 && buffer_s <= bands[below - 1].upper_s) {
    last_ = &bands[below - 1];
    return last_->winner;
  }
  return scan(*bound_, buffer_s);
}

}  // namespace bba::abr
