#include "media/chunk_table.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
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

ChunkTable::ChunkTable(const ChunkTable& other)
    : sizes_bits_(other.sizes_bits_),
      chunk_duration_s_(other.chunk_duration_s_),
      mean_bits_(other.mean_bits_) {}

ChunkTable& ChunkTable::operator=(const ChunkTable& other) {
  if (this != &other) {
    sizes_bits_ = other.sizes_bits_;
    chunk_duration_s_ = other.chunk_duration_s_;
    mean_bits_ = other.mean_bits_;
    free_window_sums();
  }
  return *this;
}

ChunkTable::ChunkTable(ChunkTable&& other) noexcept
    : sizes_bits_(std::move(other.sizes_bits_)),
      chunk_duration_s_(other.chunk_duration_s_),
      mean_bits_(std::move(other.mean_bits_)),
      window_sums_head_(
          other.window_sums_head_.exchange(nullptr, std::memory_order_acq_rel)) {
}

ChunkTable& ChunkTable::operator=(ChunkTable&& other) noexcept {
  if (this != &other) {
    sizes_bits_ = std::move(other.sizes_bits_);
    chunk_duration_s_ = other.chunk_duration_s_;
    mean_bits_ = std::move(other.mean_bits_);
    free_window_sums();
    window_sums_head_.store(
        other.window_sums_head_.exchange(nullptr, std::memory_order_acq_rel),
        std::memory_order_release);
  }
  return *this;
}

ChunkTable::~ChunkTable() { free_window_sums(); }

void ChunkTable::free_window_sums() {
  const WindowSumNode* node =
      window_sums_head_.exchange(nullptr, std::memory_order_acquire);
  while (node != nullptr) {
    const WindowSumNode* next = node->next;
    delete node;
    node = next;
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

const std::vector<double>& ChunkTable::window_sums(std::size_t rate,
                                                   std::size_t count) const {
  BBA_ASSERT(rate < num_rates(), "rate index out of range");
  BBA_ASSERT(count > 0, "window must cover at least one chunk");
  const WindowSumNode* head =
      window_sums_head_.load(std::memory_order_acquire);
  for (const WindowSumNode* node = head; node != nullptr; node = node->next) {
    if (node->rate == rate && node->count == count) {
      obs::count(obs::Counter::kReservoirMemoHits);
      return node->sums;
    }
  }

  // Miss: build the whole per-k table through the loop-summing function so
  // every entry is bitwise identical to the uncached path by construction.
  obs::count(obs::Counter::kReservoirMemoBuilds);
  auto* node = new WindowSumNode{rate, count, {}, head};
  node->sums.reserve(num_chunks());
  for (std::size_t k = 0; k < num_chunks(); ++k) {
    node->sums.push_back(sum_size_in_window_bits(rate, k, count));
  }

  const WindowSumNode* expected = head;
  while (!window_sums_head_.compare_exchange_weak(expected, node,
                                                  std::memory_order_release,
                                                  std::memory_order_acquire)) {
    // Lost the race: another thread pushed nodes since our snapshot. If one
    // of them carries our key, drop our build and hand out the published
    // one so memory stays bounded under contention.
    for (const WindowSumNode* n = expected; n != head; n = n->next) {
      if (n->rate == rate && n->count == count) {
        delete node;
        return n->sums;
      }
    }
    node->next = expected;
  }
  return node->sums;
}

}  // namespace bba::media
