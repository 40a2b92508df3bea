#include "abr/control.hpp"

#include "util/assert.hpp"

namespace bba::abr {

ControlAbr::ControlAbr(ControlConfig cfg)
    : cfg_(cfg), estimator_(cfg.estimator_window) {
  BBA_ASSERT(cfg_.f_at_empty > 0.0 && cfg_.f_at_knee >= cfg_.f_at_empty,
             "F(B) must be positive and non-decreasing");
  BBA_ASSERT(cfg_.knee_s > 0.0, "knee must be > 0");
  BBA_ASSERT(cfg_.down_threshold > 0.0 && cfg_.down_threshold <= 1.0,
             "down_threshold must be in (0, 1]");
}

double ControlAbr::estimate_bps() const {
  return estimator_.has_estimate() ? estimator_.estimate_bps() : 0.0;
}

void ControlAbr::reset() { estimator_.reset(); }

}  // namespace bba::abr
