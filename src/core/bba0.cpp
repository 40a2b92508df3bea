#include "core/bba0.hpp"

#include "util/assert.hpp"

namespace bba::core {

Bba0::Bba0(Bba0Config cfg) : cfg_(cfg) {
  BBA_ASSERT(cfg_.reservoir_s >= 0.0 && cfg_.cushion_s > 0.0,
             "invalid BBA-0 geometry");
}

}  // namespace bba::core
