// Dynamic reservoir calculation (Sec. 5.1, Fig. 12).
//
// Under VBR, even at c[k] = R_min the buffer oscillates because chunk sizes
// vary around V * R_min. The reservoir must be large enough to absorb that
// oscillation: summing, over the next X seconds of the R_min stream, the
// buffer the client will consume (ChunkSize / R_min per chunk) minus the
// buffer it resupplies (V per chunk). The paper sets X to twice the player
// buffer (480 s) and bounds the result to [8 s, 140 s].
#pragma once

#include <cstddef>

#include "media/chunk_table.hpp"

namespace bba::core {

/// Parameters of the reservoir calculation.
struct ReservoirConfig {
  /// Prospective window X (seconds of video looked ahead). The paper uses
  /// twice the 240 s playout buffer.
  double lookahead_s = 480.0;
  /// Practical bounds on the reservoir (paper: 8 s to 140 s).
  double min_s = 8.0;
  double max_s = 140.0;
};

/// Chunks in the lookahead window: floor(X / V), at least one.
std::size_t reservoir_window_chunks(double lookahead_s,
                                    double chunk_duration_s);

/// Raw (unclamped) reservoir: sum over the next X seconds of chunks at
/// R_min of (download seconds at capacity R_min) - (video seconds gained).
/// Negative for low-complexity segments such as opening credits.
/// `rmin_index` addresses the R_min row of the table; `rmin_bps` is its
/// nominal rate. Scans the window on every call: the BBA classes read the
/// same values from the title's media::DecisionTable.
double raw_reservoir_s(const media::ChunkTable& chunks, std::size_t rmin_index,
                       double rmin_bps, std::size_t next_chunk,
                       double lookahead_s);

/// Clamped reservoir per the paper's implementation bounds.
double compute_reservoir_s(const media::ChunkTable& chunks,
                           std::size_t rmin_index, double rmin_bps,
                           std::size_t next_chunk, const ReservoirConfig& cfg);

}  // namespace bba::core
