// Per-rate, per-chunk size table: Chunk[r][k] in the paper's notation
// (Sec. 5, Fig. 11). Clients download fixed-duration chunks whose byte size
// varies with the encoding; BBA-1/2/Others consume exactly this table.
#pragma once

#include <cstddef>
#include <vector>

#include "util/assert.hpp"

namespace bba::media {

/// Sizes (bits) of every chunk at every ladder rate, plus the shared chunk
/// duration V. Row r corresponds to ladder index r; all rows have the same
/// number of chunks.
class ChunkTable {
 public:
  /// `sizes_bits[r][k]` is the size of chunk k at ladder index r.
  /// Requires: at least one rate, at least one chunk, equal row lengths,
  /// strictly positive sizes, chunk_duration_s > 0.
  ChunkTable(std::vector<std::vector<double>> sizes_bits,
             double chunk_duration_s);

  std::size_t num_rates() const { return sizes_bits_.size(); }
  std::size_t num_chunks() const { return sizes_bits_.front().size(); }
  double chunk_duration_s() const { return chunk_duration_s_; }
  double video_duration_s() const;

  /// Size in bits of chunk `k` at ladder index `rate`.
  double size_bits(std::size_t rate, std::size_t k) const {
    BBA_ASSERT(rate < num_rates(), "rate index out of range");
    BBA_ASSERT(k < num_chunks(), "chunk index out of range");
    return sizes_bits_[rate][k];
  }

  /// Mean chunk size (bits) at a ladder index. For a stream of nominal rate
  /// R this is ~= V * R ("Chunk_min/Chunk_max represent the average chunk
  /// size in R_min and R_max").
  double mean_size_bits(std::size_t rate) const;

  /// Largest chunk (bits) at a ladder index.
  double max_size_bits(std::size_t rate) const;

  /// Max-to-average chunk size ratio `e` of the paper's Sec. 6 (~2 for the
  /// production encodes of Fig. 10).
  double max_to_avg_ratio(std::size_t rate) const;

  /// Largest chunk size (bits) among chunks [k, k+count) at `rate`,
  /// truncated at the end of the video. Used by BBA-Others' lookahead.
  double max_size_in_window_bits(std::size_t rate, std::size_t k,
                                 std::size_t count) const;

  /// Sum of chunk sizes (bits) among chunks [k, k+count) at `rate`,
  /// truncated at the end of the video. Used by the dynamic reservoir
  /// calculation (Fig. 12).
  double sum_size_in_window_bits(std::size_t rate, std::size_t k,
                                 std::size_t count) const;

 private:
  std::vector<std::vector<double>> sizes_bits_;
  double chunk_duration_s_;
  std::vector<double> mean_bits_;  // cached per-rate means
};

}  // namespace bba::media
