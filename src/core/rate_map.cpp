#include "core/rate_map.hpp"

#include "util/assert.hpp"

namespace bba::core {

RateMap RateMap::bba0_default(double rmin_bps, double rmax_bps) {
  return RateMap(90.0, 126.0, rmin_bps, rmax_bps);
}

bool RateMap::is_safe_at(double buffer_s, double chunk_duration_s) const {
  BBA_ASSERT(chunk_duration_s > 0.0, "chunk duration must be > 0");
  return chunk_duration_s * rate_at_bps(buffer_s) / rmin_bps_ <=
         buffer_s - reservoir_s_ ||
         buffer_s <= reservoir_s_;  // below the reservoir f pins to R_min
}

}  // namespace bba::core
