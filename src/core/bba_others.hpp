// BBA-Others: BBA-2 plus the switch-rate smoothing of Sec. 7.
//
// Two mechanisms: (1) up-switches are only taken when they are sustainable
// for the lookahead window -- as many future chunks as the buffer currently
// holds, capped at 60 -- so a small chunk followed by big ones no longer
// triggers an up-then-down flap (Fig. 21); down-switches are never smoothed
// ("so as to avoid increasing the likelihood of rebuffering"). (2) The
// reservoir may only grow (the chunk map only right-shifts), with the
// excess doubling as outage protection (Secs. 7.1-7.2).
#pragma once

#include "core/bba2.hpp"

namespace bba::core {

/// Lookahead smoothing tuning.
struct BbaOthersConfig {
  Bba2Config base;

  /// Upper bound on the lookahead window (paper: 60 chunks when the 240 s
  /// buffer is full of 4 s chunks).
  std::size_t max_lookahead_chunks = 60;
};

/// The BBA-Others algorithm: BBA-2's decision with up-switch smoothing.
class BbaOthers final : public Bba2 {
 public:
  /// Constructs with monotone reservoir + outage protection enabled (the
  /// Sec. 7 defaults) unless overridden in `cfg`.
  explicit BbaOthers(BbaOthersConfig cfg = defaults());

  std::string name() const override { return "bba-others"; }

  /// The Sec. 7 default configuration: BBA-2 with monotone reservoir and
  /// outage protection.
  static BbaOthersConfig defaults();

  /// Lookahead window at the given buffer level: one chunk when empty, up
  /// to `max_lookahead_chunks` when full.
  std::size_t lookahead_chunks(double buffer_s,
                               double chunk_duration_s) const {
    return BbaDecision::lookahead_chunks(
        buffer_s, chunk_duration_s, params().max_lookahead_chunks);
  }
};

}  // namespace bba::core
