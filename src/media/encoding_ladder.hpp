// The discrete set of nominal video rates a title is encoded at.
//
// The paper's service encodes "typically 235 kb/s standard definition to
// 5 Mb/s high definition"; `EncodingLadder::netflix_2013()` reproduces a
// ladder of that shape. Rates are sorted ascending and unique; ABR
// algorithms address them by index.
#pragma once

#include <cstddef>
#include <vector>

#include "util/assert.hpp"

namespace bba::media {

/// Sorted set of nominal video rates (bits/s).
class EncodingLadder {
 public:
  /// Builds a ladder from the given rates. Rates are sorted and must be
  /// strictly positive and unique; at least one rate is required.
  explicit EncodingLadder(std::vector<double> rates_bps);

  /// The 2013-era ladder the paper describes: 235 kb/s ... 5 Mb/s,
  /// nine rates. R_min = 235 kb/s, R_max = 5 Mb/s.
  static EncodingLadder netflix_2013();

  /// Ladder whose lowest rate is 560 kb/s, matching the paper's note that
  /// "if a user historically sustained 560 kb/s we artificially set
  /// R_min = 560 kb/s".
  static EncodingLadder netflix_2013_rmin560();

  std::size_t size() const { return rates_bps_.size(); }
  double rate_bps(std::size_t i) const {
    BBA_ASSERT(i < rates_bps_.size(), "rate index out of range");
    return rates_bps_[i];
  }
  double rmin_bps() const { return rates_bps_.front(); }
  double rmax_bps() const { return rates_bps_.back(); }
  std::size_t min_index() const { return 0; }
  std::size_t max_index() const { return rates_bps_.size() - 1; }
  const std::vector<double>& rates_bps() const { return rates_bps_; }

  /// Index of the next-higher rate ("Rate+" in Algorithm 1); saturates at
  /// the top of the ladder.
  std::size_t up(std::size_t i) const {
    BBA_ASSERT(i < rates_bps_.size(), "rate index out of range");
    return i + 1 < rates_bps_.size() ? i + 1 : i;
  }

  /// Index of the next-lower rate ("Rate-" in Algorithm 1); saturates at 0.
  std::size_t down(std::size_t i) const {
    BBA_ASSERT(i < rates_bps_.size(), "rate index out of range");
    return i > 0 ? i - 1 : 0;
  }

  /// Highest index whose rate is <= `bps`; returns 0 if even R_min exceeds
  /// `bps` (the client can never pick below R_min).
  std::size_t highest_not_above(double bps) const {
    std::size_t best = 0;
    for (std::size_t i = 0; i < rates_bps_.size(); ++i) {
      if (rates_bps_[i] <= bps) best = i;
    }
    return best;
  }

  /// Lowest index whose rate is >= `bps`; saturates at the top.
  std::size_t lowest_not_below(double bps) const {
    for (std::size_t i = 0; i < rates_bps_.size(); ++i) {
      if (rates_bps_[i] >= bps) return i;
    }
    return max_index();
  }

  /// max{ i : rate(i) < bps }, or 0 when none is strictly below. This is
  /// the "max{Ri : Ri < f(B)}" selection in Algorithm 1.
  std::size_t highest_below(double bps) const {
    std::size_t best = 0;
    for (std::size_t i = 0; i < rates_bps_.size(); ++i) {
      if (rates_bps_[i] < bps) best = i;
    }
    return best;
  }

  /// min{ i : rate(i) > bps }, or max index when none is strictly above.
  /// This is the "min{Ri : Ri > f(B)}" selection in Algorithm 1.
  std::size_t lowest_above(double bps) const {
    for (std::size_t i = 0; i < rates_bps_.size(); ++i) {
      if (rates_bps_[i] > bps) return i;
    }
    return max_index();
  }

 private:
  std::vector<double> rates_bps_;
};

}  // namespace bba::media
