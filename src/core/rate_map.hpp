// Rate maps: f(B) on the buffer-rate plane (Figs. 5 and 6).
//
// A rate map turns the current buffer occupancy into a continuous video
// rate. The theoretical criteria of Sec. 3.1 -- continuous, strictly
// increasing between R_min and R_max, pinned at both ends -- guarantee no
// unnecessary rebuffering and a maximal average rate. The practical form
// (Sec. 3.2, Fig. 6) is piecewise: R_min across the reservoir, a ramp
// across the cushion, R_max across the upper reservoir.
#pragma once

#include "util/assert.hpp"

namespace bba::core {

/// Piecewise-linear rate map with reservoir and cushion (Fig. 6).
///
///   f(B) = R_min                        for B <= reservoir
///        = linear ramp                  for reservoir < B < reservoir+cushion
///        = R_max                        for B >= reservoir + cushion
class RateMap {
 public:
  /// Requires reservoir >= 0, cushion > 0, 0 < rmin < rmax.
  RateMap(double reservoir_s, double cushion_s, double rmin_bps,
          double rmax_bps)
      : reservoir_s_(reservoir_s),
        cushion_s_(cushion_s),
        rmin_bps_(rmin_bps),
        rmax_bps_(rmax_bps) {
    BBA_ASSERT(reservoir_s_ >= 0.0, "reservoir must be >= 0");
    BBA_ASSERT(cushion_s_ > 0.0, "cushion must be > 0");
    BBA_ASSERT(rmin_bps_ > 0.0 && rmax_bps_ > rmin_bps_,
               "rates must satisfy 0 < rmin < rmax");
  }

  /// The BBA-0 production map: 90 s reservoir, 126 s cushion (the map
  /// reaches R_max at 216 s, 90% of the 240 s buffer).
  static RateMap bba0_default(double rmin_bps, double rmax_bps);

  /// f(B): the continuous rate suggested at buffer level `buffer_s`.
  double rate_at_bps(double buffer_s) const {
    if (buffer_s <= reservoir_s_) return rmin_bps_;
    if (buffer_s >= reservoir_s_ + cushion_s_) return rmax_bps_;
    const double frac = (buffer_s - reservoir_s_) / cushion_s_;
    return rmin_bps_ + frac * (rmax_bps_ - rmin_bps_);
  }

  double reservoir_s() const { return reservoir_s_; }
  double cushion_s() const { return cushion_s_; }
  /// Buffer level where f first reaches R_max (start of upper reservoir).
  double upper_reservoir_start_s() const {
    return reservoir_s_ + cushion_s_;
  }
  double rmin_bps() const { return rmin_bps_; }
  double rmax_bps() const { return rmax_bps_; }

  /// Safe-area check of Sec. 3.2: f operates in the safe area at buffer B
  /// if a V-second chunk at rate f(B) finishes before the buffer falls
  /// below the reservoir even at worst-case capacity R_min:
  ///   V * f(B) / R_min <= B - reservoir.
  bool is_safe_at(double buffer_s, double chunk_duration_s) const;

 private:
  double reservoir_s_;
  double cushion_s_;
  double rmin_bps_;
  double rmax_bps_;
};

}  // namespace bba::core
