#include "media/encoding_ladder.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace bba::media {

EncodingLadder::EncodingLadder(std::vector<double> rates_bps)
    : rates_bps_(std::move(rates_bps)) {
  BBA_ASSERT(!rates_bps_.empty(), "EncodingLadder requires at least one rate");
  std::sort(rates_bps_.begin(), rates_bps_.end());
  BBA_ASSERT(rates_bps_.front() > 0.0, "EncodingLadder rates must be > 0");
  BBA_ASSERT(std::adjacent_find(rates_bps_.begin(), rates_bps_.end()) ==
                 rates_bps_.end(),
             "EncodingLadder rates must be unique");
}

EncodingLadder EncodingLadder::netflix_2013() {
  using util::kbps;
  return EncodingLadder({kbps(235), kbps(375), kbps(560), kbps(750),
                         kbps(1050), kbps(1750), kbps(2350), kbps(3000),
                         kbps(5000)});
}

EncodingLadder EncodingLadder::netflix_2013_rmin560() {
  using util::kbps;
  return EncodingLadder({kbps(560), kbps(750), kbps(1050), kbps(1750),
                         kbps(2350), kbps(3000), kbps(5000)});
}

}  // namespace bba::media
