// BBA-0: the baseline buffer-based algorithm (Sec. 4).
//
// Rate map: piecewise linear with a fixed 90 s reservoir and 126 s cushion.
// Discretization: Algorithm 1 verbatim -- stay at the current discrete rate
// while f(B) remains strictly between the neighbouring rates; switch only
// when a "barrier" is crossed. The buffer distance between adjacent rates
// acts as a natural hysteresis cushion.
#pragma once

#include <algorithm>

#include "abr/abr.hpp"
#include "core/rate_map.hpp"
#include "util/assert.hpp"

namespace bba::core {

/// Configuration of BBA-0. The defaults are the paper's deployment values
/// for the 240 s browser-player buffer.
struct Bba0Config {
  double reservoir_s = 90.0;
  double cushion_s = 126.0;
  /// Rate index used as "previous" for the very first chunk.
  std::size_t start_index = 0;
};

/// The BBA-0 algorithm: Algorithm 1 over the Fig. 6 rate map. The decision
/// is defined inline below so the fused session player (sim::simulate)
/// inlines it into its chunk loop.
class Bba0 final : public abr::RateAdaptation {
 public:
  explicit Bba0(Bba0Config cfg = {});

  std::size_t choose_rate(const abr::Observation& obs) override;
  std::string name() const override { return "bba0"; }

  /// Algorithm 1 as a pure function, reusable by tests: picks the next
  /// ladder index given the previous one, the buffer level, and the map.
  static std::size_t algorithm1(const RateMap& map,
                                const media::EncodingLadder& ladder,
                                std::size_t prev_index, double buffer_s);

 private:
  Bba0Config cfg_;
};

inline std::size_t Bba0::algorithm1(const RateMap& map,
                                    const media::EncodingLadder& ladder,
                                    std::size_t prev_index, double buffer_s) {
  BBA_ASSERT(prev_index < ladder.size(), "prev rate index out of range");

  // Rate+ / Rate- : the neighbouring discrete rates (Algorithm 1).
  const std::size_t rate_plus = ladder.up(prev_index);
  const std::size_t rate_minus = ladder.down(prev_index);

  if (buffer_s <= map.reservoir_s()) {
    return ladder.min_index();
  }
  if (buffer_s >= map.upper_reservoir_start_s()) {
    return ladder.max_index();
  }
  const double f = map.rate_at_bps(buffer_s);
  if (f >= ladder.rate_bps(rate_plus)) {
    return ladder.highest_below(f);  // max{Ri : Ri < f(B)}
  }
  if (f <= ladder.rate_bps(rate_minus)) {
    return ladder.lowest_above(f);   // min{Ri : Ri > f(B)}
  }
  return prev_index;
}

inline std::size_t Bba0::choose_rate(const abr::Observation& obs) {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  const auto& ladder = obs.video->ladder();
  const RateMap map(cfg_.reservoir_s, cfg_.cushion_s, ladder.rmin_bps(),
                    ladder.rmax_bps());
  const std::size_t prev = obs.chunk_index == 0
                               ? std::min(cfg_.start_index, ladder.max_index())
                               : std::min(obs.prev_rate_index,
                                          ladder.max_index());
  return algorithm1(map, ladder, prev, obs.buffer_s);
}

}  // namespace bba::core
