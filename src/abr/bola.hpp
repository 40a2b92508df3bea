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
#pragma once

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
/// player (sim::simulate) inlines it into its chunk loop; prepare() runs
/// once per session and stays out of line.
class BolaAbr final : public RateAdaptation {
 public:
  explicit BolaAbr(BolaConfig cfg = {});

  std::size_t choose_rate(const Observation& obs) override;
  /// Drops the prepared state: a new session may stream another title
  /// (possibly a new Video object at a reused address).
  void reset() override { prepared_for_ = nullptr; }
  std::string name() const override { return "bola"; }

  /// The drift-plus-penalty objective for rendition `m` at buffer level
  /// `buffer_s` (exposed for tests): higher is better; negative for every
  /// m means "do not download yet" and maps to holding at R_min here.
  double objective(const Observation& obs, std::size_t m) const;

 private:
  /// Computes the per-video terms of the objective once per session: the
  /// utilities, gp and Vp depend only on the ladder's mean chunk sizes, so
  /// each decision is then one subtraction and one division per rendition
  /// instead of a logarithm per rendition per objective call.
  void prepare(const media::Video& video) const;

  BolaConfig cfg_;
  // Prepared state for `prepared_for_` (mutable: a cache behind the const
  // objective()). numerator_[m] = Vp * (utility_m + gp); size_[m] = S_m.
  mutable const media::Video* prepared_for_ = nullptr;
  mutable std::vector<double> numerator_;
  mutable std::vector<double> size_;
};

inline std::size_t BolaAbr::choose_rate(const Observation& obs) {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  if (obs.video != prepared_for_) prepare(*obs.video);
  const std::size_t n = numerator_.size();
  std::size_t best = 0;
  double best_value = (numerator_[0] - obs.buffer_s) / size_[0];
  for (std::size_t m = 1; m < n; ++m) {
    const double value = (numerator_[m] - obs.buffer_s) / size_[m];
    if (value > best_value) {
      best_value = value;
      best = m;
    }
  }
  return best;
}

}  // namespace bba::abr
