// Chunk-major decision table for table-driven BBA decisions
// (core/bba_table.hpp).
//
// A BBA decision at chunk k reads the dynamic reservoir for k plus the
// sizes of chunk k at every ladder rate. The classes gather those from
// n_rates separate ChunkTable rows plus the window-sum memo; this table
// packs everything one decision touches into a single row
//   [ raw_reservoir_k, size_bits(0, k), ..., size_bits(R-1, k) ]
// (stride n_rates + 1), so a decision reads 1-2 cache lines. The reservoir
// column stores the RAW (unclamped) value of core::raw_reservoir_s -- the
// [min_s, max_s] clamp is applied per decision from the algorithm profile,
// which keeps the table a pure function of (video, window_chunks) and lets
// groups with different reservoir bounds share one table.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "media/video.hpp"

namespace bba::media {

struct DecisionTable {
  const Video* video = nullptr;
  std::size_t window_chunks = 0;

  /// Chunk-major rows, stride `row_stride` = n_rates + 1.
  std::vector<double> szt;
  std::size_t row_stride = 0;

  double chunk_min_mean = 0.0;  ///< mean chunk bits at R_min
  double chunk_max_mean = 0.0;  ///< mean chunk bits at R_max
  double V = 0.0;               ///< chunk duration
  std::size_t n_rates = 0;      ///< ladder size
};

/// Per-scratch (per executor slot) cache of decision tables, keyed by
/// (video, window_chunks). Building an entry performs exactly one real
/// ChunkTable::window_sums call -- the genuine build-or-memo-hit event the
/// obs registry counts -- which is what core::BbaTable's memo-hit
/// accounting is balanced against. Not thread-safe:
/// each worker slot owns its own cache.
class DecisionTableCache {
 public:
  /// Returns the table for (video, window_chunks), building it on first
  /// use. `built_now` (required) is set to true exactly when this call
  /// built the entry -- i.e. when it performed the one real window_sums
  /// call.
  const DecisionTable& get(const Video& video, std::size_t window_chunks,
                           bool* built_now);

 private:
  // A handful of (video, window) pairs per run: linear scan beats any map.
  // Entries are pointer-stable (returned references outlive later builds).
  std::vector<std::unique_ptr<DecisionTable>> tables_;
};

}  // namespace bba::media
