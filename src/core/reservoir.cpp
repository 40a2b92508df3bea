#include "core/reservoir.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace bba::core {

std::size_t reservoir_window_chunks(double lookahead_s,
                                    double chunk_duration_s) {
  BBA_ASSERT(lookahead_s > 0.0, "lookahead must be > 0");
  return static_cast<std::size_t>(
      std::max(1.0, std::floor(lookahead_s / chunk_duration_s)));
}

double raw_reservoir_s(const media::ChunkTable& chunks, std::size_t rmin_index,
                       double rmin_bps, std::size_t next_chunk,
                       double lookahead_s) {
  BBA_ASSERT(rmin_bps > 0.0, "rmin must be > 0");
  const double V = chunks.chunk_duration_s();
  const std::size_t window_chunks = reservoir_window_chunks(lookahead_s, V);
  if (next_chunk >= chunks.num_chunks()) return 0.0;
  const std::size_t count =
      std::min(window_chunks, chunks.num_chunks() - next_chunk);
  // Seconds to download the window at capacity R_min, minus the seconds of
  // video the window resupplies.
  return chunks.sum_size_in_window_bits(rmin_index, next_chunk, count) /
             rmin_bps -
         static_cast<double>(count) * V;
}

double compute_reservoir_s(const media::ChunkTable& chunks,
                           std::size_t rmin_index, double rmin_bps,
                           std::size_t next_chunk,
                           const ReservoirConfig& cfg) {
  BBA_ASSERT(cfg.min_s <= cfg.max_s, "reservoir bounds inverted");
  const double raw = raw_reservoir_s(chunks, rmin_index, rmin_bps, next_chunk,
                                     cfg.lookahead_s);
  return std::clamp(raw, cfg.min_s, cfg.max_s);
}

}  // namespace bba::core
