// The reference trace Source: every query is CapacityTrace's own binary
// search, and nothing is tallied.
//
// The session player (sim/simulate.hpp) reads every trace through
// net::StreamCursor. Tests run the player over SearchSource too, so that
// StreamCursor is compared with a reader that shares none of its code; the
// hot-path bench's recorded mode uses it as the player's trace Source from
// before any cursor existed.
#pragma once

#include <cstdint>

#include "net/capacity_trace.hpp"

namespace bba::net {

struct SearchSource {
  const CapacityTrace& trace;

  double finish_time_s(double start_s, double bits) const {
    return trace.finish_time_s(start_s, bits);
  }
  double rate_at_bps(double t_s) const { return trace.rate_at_bps(t_s); }
  std::uint32_t queries() const { return 0; }
  std::uint32_t rewinds() const { return 0; }
  double cycle_duration_s() const { return trace.cycle_duration_s(); }
  bool loops() const { return trace.loops(); }
};

}  // namespace bba::net
