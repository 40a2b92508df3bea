#include "media/decision_table.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bba::media {

DecisionTable::DecisionTable(const ChunkTable& chunks,
                             const EncodingLadder& ladder,
                             std::size_t window_chunks)
    : window_chunks(window_chunks),
      row_stride(ladder.size() + 1),
      chunk_min_mean(chunks.mean_size_bits(ladder.min_index())),
      chunk_max_mean(chunks.mean_size_bits(ladder.max_index())),
      V(chunks.chunk_duration_s()),
      n_rates(ladder.size()) {
  BBA_ASSERT(window_chunks > 0, "window must cover at least one chunk");
  const std::size_t n = chunks.num_chunks();
  const std::size_t rmin = ladder.min_index();
  const double rmin_bps = ladder.rmin_bps();
  szt.resize(n * row_stride);
  for (std::size_t k = 0; k < n; ++k) {
    double* row = szt.data() + k * row_stride;
    // Exact core::raw_reservoir_s expression.
    const std::size_t count = std::min(window_chunks, n - k);
    row[0] = chunks.sum_size_in_window_bits(rmin, k, count) / rmin_bps -
             static_cast<double>(count) * V;
    for (std::size_t r = 0; r < n_rates; ++r) {
      row[1 + r] = chunks.size_bits(r, k);
    }
  }
}

}  // namespace bba::media
