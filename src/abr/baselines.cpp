#include "abr/baselines.hpp"

#include "util/assert.hpp"

namespace bba::abr {

std::size_t RMaxAlways::choose_rate(const Observation& obs) {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  return obs.video->ladder().max_index();
}

ThroughputAbr::ThroughputAbr(
    std::unique_ptr<net::ThroughputEstimator> estimator, double safety,
    std::size_t start_index)
    : estimator_(std::move(estimator)),
      safety_(safety),
      start_index_(start_index) {
  BBA_ASSERT(estimator_ != nullptr, "ThroughputAbr requires an estimator");
  BBA_ASSERT(safety_ > 0.0 && safety_ <= 1.0, "safety must be in (0, 1]");
}

std::size_t ThroughputAbr::choose_rate(const Observation& obs) {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  const auto& ladder = obs.video->ladder();
  if (obs.last_throughput_bps > 0.0) {
    estimator_->add_sample(obs.last_throughput_bps, obs.last_download_s);
  }
  if (!estimator_->has_estimate()) {
    return std::min(start_index_, ladder.max_index());
  }
  return ladder.highest_not_above(safety_ * estimator_->estimate_bps());
}

void ThroughputAbr::reset() { estimator_->reset(); }

}  // namespace bba::abr
