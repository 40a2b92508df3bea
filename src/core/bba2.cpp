#include "core/bba2.hpp"

#include "util/assert.hpp"

namespace bba::core {

namespace {

BbaDecision::Params bba2_params(const Bba2Config& cfg,
                                std::size_t max_lookahead_chunks) {
  BBA_ASSERT(cfg.threshold_at_empty > cfg.threshold_at_knee &&
                 cfg.threshold_at_knee > 0.0,
             "startup thresholds must decay from empty to knee");
  BbaDecision::Params p;
  p.base = cfg.base;
  p.startup = true;
  p.threshold_at_empty = cfg.threshold_at_empty;
  p.threshold_at_knee = cfg.threshold_at_knee;
  p.max_lookahead_chunks = max_lookahead_chunks;
  return p;
}

}  // namespace

Bba2::Bba2(Bba2Config cfg) : Bba2(cfg, 0) {}

Bba2::Bba2(const Bba2Config& cfg, std::size_t max_lookahead_chunks)
    : Bba1(bba2_params(cfg, max_lookahead_chunks)) {}

}  // namespace bba::core
