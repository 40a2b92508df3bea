// Chunk-major decision table: the one input of every BBA-1/2/Others
// decision (core/bba_table.hpp).
//
// A BBA decision at chunk k reads the dynamic reservoir for k plus the
// sizes of chunk k at every ladder rate. This table packs everything one
// decision touches into a single row
//   [ raw_reservoir_k, size_bits(0, k), ..., size_bits(R-1, k) ]
// (stride n_rates + 1), so a decision reads 1-2 cache lines. The reservoir
// column stores the RAW (unclamped) value of core::raw_reservoir_s, summed
// by the same left-to-right loop (ChunkTable::sum_size_in_window_bits), so
// it is bitwise the per-decision scan. The [min_s, max_s] clamp is applied
// per decision from the algorithm profile, which keeps the table a pure
// function of (title, window_chunks) and lets groups with different
// reservoir bounds share one table. Each media::Video builds a table once
// per window, on first use (Video::decision_table), and every thread shares
// it.
#pragma once

#include <cstddef>
#include <vector>

#include "media/chunk_table.hpp"
#include "media/encoding_ladder.hpp"

namespace bba::media {

struct DecisionTable {
  /// Builds the rows of a title whose reservoir looks `window_chunks`
  /// chunks ahead.
  DecisionTable(const ChunkTable& chunks, const EncodingLadder& ladder,
                std::size_t window_chunks);

  std::size_t window_chunks = 0;

  /// Chunk-major rows, stride `row_stride` = n_rates + 1.
  std::vector<double> szt;
  std::size_t row_stride = 0;

  double chunk_min_mean = 0.0;  ///< mean chunk bits at R_min
  double chunk_max_mean = 0.0;  ///< mean chunk bits at R_max
  double V = 0.0;               ///< chunk duration
  std::size_t n_rates = 0;      ///< ladder size
};

}  // namespace bba::media
