#include "media/chunk_table.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bba::media {

ChunkTable::ChunkTable(std::vector<std::vector<double>> sizes_bits,
                       double chunk_duration_s)
    : sizes_bits_(std::move(sizes_bits)),
      chunk_duration_s_(chunk_duration_s) {
  BBA_ASSERT(chunk_duration_s_ > 0.0, "chunk duration must be > 0");
  BBA_ASSERT(!sizes_bits_.empty(), "ChunkTable requires at least one rate");
  const std::size_t n = sizes_bits_.front().size();
  BBA_ASSERT(n > 0, "ChunkTable requires at least one chunk");
  for (const auto& row : sizes_bits_) {
    BBA_ASSERT(row.size() == n, "all rates must have the same chunk count");
    for (double s : row) {
      BBA_ASSERT(s > 0.0, "chunk sizes must be > 0");
    }
  }
  mean_bits_.reserve(sizes_bits_.size());
  for (const auto& row : sizes_bits_) {
    double sum = 0.0;
    for (double s : row) sum += s;
    mean_bits_.push_back(sum / static_cast<double>(n));
  }
}

double ChunkTable::video_duration_s() const {
  return chunk_duration_s_ * static_cast<double>(num_chunks());
}

double ChunkTable::mean_size_bits(std::size_t rate) const {
  BBA_ASSERT(rate < num_rates(), "rate index out of range");
  return mean_bits_[rate];
}

double ChunkTable::max_size_bits(std::size_t rate) const {
  BBA_ASSERT(rate < num_rates(), "rate index out of range");
  return *std::max_element(sizes_bits_[rate].begin(),
                           sizes_bits_[rate].end());
}

double ChunkTable::max_to_avg_ratio(std::size_t rate) const {
  return max_size_bits(rate) / mean_size_bits(rate);
}

double ChunkTable::max_size_in_window_bits(std::size_t rate, std::size_t k,
                                           std::size_t count) const {
  BBA_ASSERT(rate < num_rates(), "rate index out of range");
  BBA_ASSERT(k < num_chunks(), "chunk index out of range");
  const std::size_t end = std::min(k + count, num_chunks());
  double best = 0.0;
  for (std::size_t i = k; i < end; ++i) {
    best = std::max(best, sizes_bits_[rate][i]);
  }
  return best;
}

double ChunkTable::sum_size_in_window_bits(std::size_t rate, std::size_t k,
                                           std::size_t count) const {
  BBA_ASSERT(rate < num_rates(), "rate index out of range");
  BBA_ASSERT(k < num_chunks(), "chunk index out of range");
  const std::size_t end = std::min(k + count, num_chunks());
  double sum = 0.0;
  for (std::size_t i = k; i < end; ++i) sum += sizes_bits_[rate][i];
  return sum;
}

}  // namespace bba::media
