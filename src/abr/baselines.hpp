// Degenerate and naive baselines.
//
// RMinAlways is the paper's Group-2 algorithm: "always stream at R_min ...
// giving us a lower bound on the rebuffer rate to compare new algorithms
// against". RMaxAlways is the opposite extreme from the introduction.
// ThroughputAbr is pure Fig.-3 capacity chasing with no buffer adjustment.
#pragma once

#include <memory>

#include "abr/abr.hpp"
#include "net/estimators.hpp"
#include "util/assert.hpp"

namespace bba::abr {

/// Always requests R_min. Empirical lower bound on the rebuffer rate.
class RMinAlways final : public RateAdaptation {
 public:
  std::size_t choose_rate(const Observation& obs) override {
    BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
    return obs.video->ladder().min_index();
  }
  std::string name() const override { return "rmin-always"; }
};

/// Always requests R_max. Maximizes quality, risks extensive rebuffering.
class RMaxAlways final : public RateAdaptation {
 public:
  std::size_t choose_rate(const Observation& obs) override;
  std::string name() const override { return "rmax-always"; }
};

/// Naive capacity chasing: picks the highest rate not above
/// safety * estimate, with no buffer awareness at all.
class ThroughputAbr final : public RateAdaptation {
 public:
  /// `estimator` must be non-null. `safety` in (0, 1] discounts the
  /// estimate; `start_index` is used until the first sample arrives.
  ThroughputAbr(std::unique_ptr<net::ThroughputEstimator> estimator,
                double safety = 0.9, std::size_t start_index = 0);

  std::size_t choose_rate(const Observation& obs) override;
  void reset() override;
  std::string name() const override { return "throughput"; }

 private:
  std::unique_ptr<net::ThroughputEstimator> estimator_;
  double safety_;
  std::size_t start_index_;
};

}  // namespace bba::abr
