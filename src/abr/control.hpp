// The "Control" algorithm: a capacity-estimation-first ABR of the design the
// paper attributes to Netflix's then-default algorithm (Fig. 3).
//
//   R(t) = F(B(t)) * C_hat(t)
//
// C_hat is a smoothed per-chunk throughput estimate; F is a buffer-occupancy
// adjustment that is conservative near empty and aggressive near full; the
// continuous target is quantized to the ladder with mild hysteresis. The
// paper's Sec. 2.2 failure mode is reproduced faithfully: after a sharp
// capacity drop the smoothed estimate stays high for several chunks, the
// adjustment is "not small enough to offset the difference", and the client
// rides a too-high rate into an unnecessary rebuffer (Fig. 4).
#pragma once

#include <algorithm>
#include <memory>

#include "abr/abr.hpp"
#include "net/estimators.hpp"
#include "util/assert.hpp"

namespace bba::abr {

/// Tuning of the Control algorithm.
struct ControlConfig {
  /// Sliding-mean window (chunks) of the throughput estimator. Longer
  /// windows are smoother but slower to react to capacity drops.
  std::size_t estimator_window = 5;

  /// Buffer adjustment F(B): linear from `f_at_empty` at B = 0 to
  /// `f_at_knee` at B = `knee_s`, constant afterwards.
  double f_at_empty = 0.35;
  double f_at_knee = 1.30;
  double knee_s = 90.0;

  /// Down-switch hysteresis: keep the current rate while
  /// F(B) * C_hat >= down_threshold * rate(current). 1.0 = none.
  double down_threshold = 0.85;

  /// Up-switch margin: only move up when F(B) * C_hat exceeds the
  /// candidate rate by this factor (suppresses boundary flapping).
  double up_margin = 1.15;

  /// Fresh-sample cap: the estimate never exceeds this multiple of the
  /// most recent chunk throughput, so one slow chunk immediately tempers a
  /// stale sliding mean. (A production safeguard; without it the Fig. 4
  /// failure repeats on every deep fade.)
  double last_sample_cap = 1.35;

  /// Ladder index requested until the first throughput sample arrives.
  std::size_t start_index = 2;
};

/// Capacity-estimation ABR with buffer-based adjustment (Fig. 3).
///
/// The per-chunk decision is defined inline below so the fused session
/// player (sim::simulate) inlines it into its chunk loop.
class ControlAbr final : public RateAdaptation {
 public:
  explicit ControlAbr(ControlConfig cfg = {});

  std::size_t choose_rate(const Observation& obs) override;
  void reset() override;
  std::string name() const override { return "control"; }

  /// The adjustment function F(B) (exposed for tests and figures).
  double adjustment(double buffer_s) const {
    const double clamped = std::clamp(buffer_s, 0.0, cfg_.knee_s);
    return cfg_.f_at_empty +
           (cfg_.f_at_knee - cfg_.f_at_empty) * clamped / cfg_.knee_s;
  }

  /// Current smoothed estimate; 0 before any sample.
  double estimate_bps() const;

 private:
  ControlConfig cfg_;
  net::SlidingMeanEstimator estimator_;
};

inline std::size_t ControlAbr::choose_rate(const Observation& obs) {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  const auto& ladder = obs.video->ladder();

  if (obs.last_throughput_bps > 0.0) {
    estimator_.add_sample(obs.last_throughput_bps, obs.last_download_s);
  }
  if (!estimator_.has_estimate()) {
    return std::min(cfg_.start_index, ladder.max_index());
  }

  double estimate = estimator_.estimate_bps();
  if (obs.last_throughput_bps > 0.0) {
    estimate = std::min(estimate, cfg_.last_sample_cap *
                                      obs.last_throughput_bps);
  }
  const double target_bps = adjustment(obs.buffer_s) * estimate;

  if (obs.chunk_index == 0) {
    return ladder.highest_not_above(target_bps);
  }
  const std::size_t prev = std::min(obs.prev_rate_index, ladder.max_index());
  const std::size_t candidate = ladder.highest_not_above(target_bps);
  if (candidate > prev) {
    // Capacity supports a higher rate; move up only with margin to avoid
    // flapping on ladder boundaries.
    const std::size_t up = ladder.highest_not_above(target_bps / cfg_.up_margin);
    return std::max(up, prev);
  }
  if (target_bps >= cfg_.down_threshold * ladder.rate_bps(prev)) {
    return prev;  // within hysteresis: stick
  }
  return candidate;
}

}  // namespace bba::abr
