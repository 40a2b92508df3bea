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

std::size_t EncodingLadder::up(std::size_t i) const {
  BBA_ASSERT(i < rates_bps_.size(), "rate index out of range");
  return i + 1 < rates_bps_.size() ? i + 1 : i;
}

std::size_t EncodingLadder::down(std::size_t i) const {
  BBA_ASSERT(i < rates_bps_.size(), "rate index out of range");
  return i > 0 ? i - 1 : 0;
}

std::size_t EncodingLadder::highest_not_above(double bps) const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < rates_bps_.size(); ++i) {
    if (rates_bps_[i] <= bps) best = i;
  }
  return best;
}

std::size_t EncodingLadder::lowest_not_below(double bps) const {
  for (std::size_t i = 0; i < rates_bps_.size(); ++i) {
    if (rates_bps_[i] >= bps) return i;
  }
  return max_index();
}

std::size_t EncodingLadder::highest_below(double bps) const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < rates_bps_.size(); ++i) {
    if (rates_bps_[i] < bps) best = i;
  }
  return best;
}

std::size_t EncodingLadder::lowest_above(double bps) const {
  for (std::size_t i = 0; i < rates_bps_.size(); ++i) {
    if (rates_bps_[i] > bps) return i;
  }
  return max_index();
}

}  // namespace bba::media
