#include "core/bba_others.hpp"

#include "util/assert.hpp"

namespace bba::core {

BbaOthersConfig BbaOthers::defaults() {
  BbaOthersConfig cfg;
  cfg.base.base.monotone_reservoir = true;
  cfg.base.base.outage_protection = true;
  return cfg;
}

BbaOthers::BbaOthers(BbaOthersConfig cfg)
    : Bba2(cfg.base, cfg.max_lookahead_chunks) {
  BBA_ASSERT(cfg.max_lookahead_chunks >= 1,
             "lookahead must be at least one chunk");
}

}  // namespace bba::core
