#include "media/decision_table.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bba::media {

const DecisionTable& DecisionTableCache::get(const Video& video,
                                             std::size_t window_chunks,
                                             bool* built_now) {
  BBA_ASSERT(built_now != nullptr, "built_now is required");
  for (const auto& entry : tables_) {
    if (entry->video == &video && entry->window_chunks == window_chunks) {
      *built_now = false;
      return *entry;
    }
  }
  *built_now = true;
  DecisionTable& t =
      *tables_.emplace_back(std::make_unique<DecisionTable>());
  const ChunkTable& chunks = video.chunks();
  const EncodingLadder& ladder = video.ladder();
  t.video = &video;
  t.window_chunks = window_chunks;
  t.V = video.chunk_duration_s();
  t.n_rates = ladder.size();
  const std::size_t n = video.num_chunks();
  const double rmin_bps = ladder.rmin_bps();
  t.chunk_min_mean = chunks.mean_size_bits(ladder.min_index());
  t.chunk_max_mean = chunks.mean_size_bits(ladder.max_index());
  t.row_stride = t.n_rates + 1;
  t.szt.resize(n * t.row_stride);
  // The one real window_sums call of this entry's lifetime (a build or a
  // memo hit on the shared ChunkTable memo, counted there).
  const std::vector<double>& ws =
      chunks.window_sums(ladder.min_index(), window_chunks);
  for (std::size_t k = 0; k < n; ++k) {
    double* row = t.szt.data() + k * t.row_stride;
    // Exact core::raw_reservoir_s expression over the memoized sum.
    const std::size_t count = std::min(window_chunks, n - k);
    row[0] = ws[k] / rmin_bps - static_cast<double>(count) * t.V;
    for (std::size_t r = 0; r < t.n_rates; ++r) {
      row[1 + r] = chunks.size_bits(r, k);
    }
  }
  return t;
}

}  // namespace bba::media
