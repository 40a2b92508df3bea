// End-to-end capacity as a function of time: C(t) in the paper.
//
// A trace is a sequence of piecewise-constant segments. The player
// simulator never samples C(t) directly -- it asks "when does a download of
// S bits starting at time t finish?", which is computed by exact
// integration, so chunk throughputs are exact averages over the download
// interval just as a real client would measure them.
//
// Its own methods are the reference: each query is a fresh binary search.
// The session player reads a trace through net::StreamCursor
// (trace_stream.hpp), which returns bit-identical answers while advancing
// a segment hint over a copy of the prefix tables.
#pragma once

#include <cstddef>
#include <vector>

namespace bba::net {

/// Piecewise-constant capacity trace. Optionally loops forever (the default:
/// sessions may outlast the generated trace).
class CapacityTrace {
 public:
  struct Segment {
    double duration_s = 0.0;  ///< must be > 0
    double rate_bps = 0.0;    ///< >= 0; zero models a full outage
  };

  /// Requires at least one segment with positive duration. If `loop` is
  /// false, capacity after the last segment is 0 (dead link).
  explicit CapacityTrace(std::vector<Segment> segments, bool loop = true);

  /// Rebuilds this trace in place from `segments`, swapping the previous
  /// segment storage back into `segments` and recomputing the prefix
  /// tables without shrinking their capacity. Repeatedly assigning traces
  /// of a bounded size therefore performs zero heap allocation once the
  /// buffers have grown to the workload -- the A/B harness's per-thread
  /// scratch relies on this.
  void assign(std::vector<Segment>& segments, bool loop);

  /// Constant-capacity trace (loops trivially).
  static CapacityTrace constant(double rate_bps);

  /// Instantaneous capacity at absolute time t (t >= 0).
  double rate_at_bps(double t_s) const;

  /// Time at which a download of `bits` starting at `start_s` completes.
  /// Returns +infinity if the download can never complete (all-outage
  /// remainder, or a non-looping trace that ran out).
  double finish_time_s(double start_s, double bits) const;

  /// Bits deliverable in [t0, t1] (t1 >= t0).
  double bits_between(double t0_s, double t1_s) const;

  /// Index of the segment containing in-cycle time `t_s`, for
  /// t_s in [0, cycle_duration_s()]: the last segment whose start is
  /// <= t_s (t_s == cycle_duration_s() maps to the last segment). The
  /// single place segment lookup happens; O(log segments).
  std::size_t segment_index_at(double t_s) const;

  /// Duration of one cycle of the underlying segment list.
  double cycle_duration_s() const { return cycle_s_; }

  bool loops() const { return loop_; }
  const std::vector<Segment>& segments() const { return segments_; }

  /// Cumulative segment start times: size()+1 entries, [0] == 0 and
  /// [size()] == cycle_duration_s(). TraceStream::assign copies it.
  const std::vector<double>& time_prefix() const { return time_prefix_; }

  /// Cumulative bits delivered by each segment boundary: size()+1 entries.
  /// TraceStream::assign copies it.
  const std::vector<double>& bits_prefix_table() const { return bits_prefix_; }

  /// Bits delivered over one whole cycle.
  double cycle_bits() const { return cycle_bits_; }

  /// Minimum / maximum segment rate in the trace.
  double min_rate_bps() const;
  double max_rate_bps() const;

 private:
  /// Bits deliverable in [0, t] within the first cycle (t <= cycle_s_).
  double bits_prefix(double t_s) const;

  std::vector<Segment> segments_;
  std::vector<double> time_prefix_;  // cumulative duration, size()+1 entries
  std::vector<double> bits_prefix_;  // cumulative bits, size()+1 entries
  double cycle_s_ = 0.0;
  double cycle_bits_ = 0.0;
  bool loop_ = true;
};

}  // namespace bba::net
