// Incremental, O(1)-amortized reader over a CapacityTrace.
//
// CapacityTrace answers every query with a fresh binary search over its
// segment prefix table. A simulated session, however, queries the SAME
// trace at monotonically non-decreasing times (each chunk starts where the
// previous one finished), so the segment containing the query is almost
// always the hinted one or a near successor. TraceCursor keeps that hint:
// monotone query streams advance it incrementally (amortized O(1) per
// query across a cycle), and a rewind -- a query earlier than the hint --
// falls back to the trace's own binary search.
//
// Contract: every method returns a result BIT-IDENTICAL to the same-named
// CapacityTrace method. The cursor only replaces how the segment index is
// found (an integer, found exactly either way); all floating-point
// arithmetic on times and bits is the verbatim CapacityTrace expression
// sequence. tests/test_net_cursor.cpp enforces this on randomized query
// streams.
//
// A cursor borrows the trace: it must not outlive it, and the trace must
// not be mutated (assign()) while the cursor is in use.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/capacity_trace.hpp"

namespace bba::net {

/// Stateful trace reader; cheap to construct (no allocation), one per
/// session.
class TraceCursor {
 public:
  explicit TraceCursor(const CapacityTrace& trace) : trace_(&trace) {}

  const CapacityTrace& trace() const { return *trace_; }
  double cycle_duration_s() const { return trace_->cycle_duration_s(); }
  bool loops() const { return trace_->loops(); }

  /// Bit-identical to CapacityTrace::rate_at_bps.
  double rate_at_bps(double t_s);

  /// Bit-identical to CapacityTrace::finish_time_s.
  double finish_time_s(double start_s, double bits);

  /// Bit-identical to CapacityTrace::bits_between.
  double bits_between(double t0_s, double t1_s);

  /// Bit-identical to CapacityTrace::average_bps.
  double average_bps(double t0_s, double t1_s);

  /// Lookup tallies, kept as plain members (a seek runs in nanoseconds, so
  /// even a thread-local touch per call is too expensive); the session
  /// owner flushes them into the obs registry once, at session end.
  std::uint32_t queries() const { return queries_; }
  std::uint32_t rewinds() const { return rewinds_; }

 private:
  /// Segment index containing in-cycle time `pos` (0 <= pos <= cycle):
  /// advances the hint forward when possible, binary-searches on rewind.
  /// Always equals trace_->segment_index_at(pos).
  std::size_t seek(double pos);

  /// CapacityTrace::bits_prefix with the hinted lookup.
  double bits_prefix(double t_s);

  const CapacityTrace* trace_;
  std::size_t hint_ = 0;
  std::uint32_t queries_ = 0;
  std::uint32_t rewinds_ = 0;
};

}  // namespace bba::net
