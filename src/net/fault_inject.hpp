// Composable fault injection over capacity traces.
//
// The paper motivates BBA's reservoir with network faults: "temporary
// network outages of 20-35 s are not uncommon" (Sec. 7.1). A FaultPlan is
// an ordered list of fault passes applied to a base trace:
//
//   - kOutage:   hard zero-capacity windows at exponentially distributed
//                intervals (the generalization of trace_gen's
//                insert_outages -- same draw order, same segments).
//   - kSpike:    bounded-duration multiplicative capacity dips (latency /
//                throughput spikes: WiFi interference, cross traffic).
//                Overlaid in place; the trace timeline is not stretched.
//   - kFailover: a CDN failover -- a short blackout while the client
//                re-resolves, then a step change to a different capacity
//                regime (all capacity after the blackout is multiplied by
//                the drawn regime factor; factors compound across
//                failovers).
//
// Passes consume the caller's Rng in plan order with a fixed per-event
// draw sequence, so a plan applied with a coordinate-keyed substream
// (exp::StreamClass::kFaults) is bit-identical at any thread count.
//
// Every injected fault is reported as an InjectedFault event in OUTPUT
// trace time (after any time insertion by earlier passes), so downstream
// consumers -- stall attribution in sim::Player, `fault` events in
// obs::SessionTraceSink -- can overlay faults on the session timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/capacity_trace.hpp"
#include "util/rng.hpp"

namespace bba::net {

enum class FaultKind : std::uint8_t {
  kOutage = 0,
  kSpike = 1,
  kFailover = 2,
};

/// Stable lowercase name ("outage" / "spike" / "failover"); used by the
/// spec grammar and the obs `fault` event schema. Header-only so obs can
/// serialize fault events without a link dependency on bba_net.
inline const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kOutage: return "outage";
    case FaultKind::kSpike: return "spike";
    case FaultKind::kFailover: return "failover";
  }
  return "unknown";
}

/// One fault pass. Events arrive with exponentially distributed gaps of
/// mean `mean_interval_s` between the end of one event and the start of
/// the next; each event's duration is uniform in
/// [min_duration_s, max_duration_s].
///
/// `min_factor`/`max_factor` give the uniform range of the event's
/// capacity factor; it is ignored for kOutage (capacity is exactly 0).
/// For kSpike the factor multiplies capacity for the event's duration;
/// for kFailover the drawn duration is the blackout length and the factor
/// is the new regime's capacity multiplier from the failover onward.
struct FaultSpec {
  FaultKind kind = FaultKind::kOutage;
  double mean_interval_s = 600.0;
  double min_duration_s = 15.0;
  double max_duration_s = 35.0;
  double min_factor = 1.0;
  double max_factor = 1.0;
};

/// An ordered list of fault passes; empty means "no faults" and is the
/// all-defaults state (applying an empty plan is a no-op and consumes no
/// randomness).
struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }
};

/// One injected fault occurrence, in OUTPUT trace time. `duration_s` is
/// the effective duration actually present in the trace (an event drawn
/// past the end of a non-final segment list is truncated at the cycle
/// end). `factor` is 0 for outages, the dip factor for spikes, and the
/// regime multiplier for failovers (whose duration is the blackout).
struct InjectedFault {
  FaultKind kind = FaultKind::kOutage;
  double start_s = 0.0;
  double duration_s = 0.0;
  double factor = 0.0;
};

/// Reusable buffers for apply_fault_plan: ping-pong segment lists for
/// multi-pass plans plus the event list. Reusing one scratch across
/// sessions keeps the steady-state hot path allocation-free.
struct FaultScratch {
  std::vector<CapacityTrace::Segment> ping;
  std::vector<CapacityTrace::Segment> pong;
  std::vector<CapacityTrace::Segment> result;
  std::vector<InjectedFault> events;
};

/// Segments at or below this duration are not emitted on their own: a
/// fault boundary that lands (up to floating-point residue) on a segment
/// boundary would otherwise produce a near-zero-duration segment -- the
/// historical insert_outages bug. Sub-threshold slices are carried into
/// the next emitted segment so total trace duration is conserved.
inline constexpr double kMinSegmentS = 1e-9;

/// The sub-threshold carry of a fault pass's output. `Out` receives the
/// emitted segments: push(duration_s, rate_bps), empty(), and
/// extend_last(duration_s), which lengthens the last pushed segment.
class SegmentEmitter {
 public:
  template <class Out>
  void emit(Out& out, double duration_s, double rate_bps) {
    duration_s += carry_;
    carry_ = 0.0;
    if (duration_s <= kMinSegmentS) {
      carry_ = duration_s;
      return;
    }
    out.push(duration_s, rate_bps);
  }

  /// Folds a trailing sub-threshold slice into the last emitted segment so
  /// no duration is lost at the end of the trace.
  template <class Out>
  void flush(Out& out, double fallback_rate_bps) {
    if (carry_ <= 0.0) return;
    if (!out.empty()) {
      out.extend_last(carry_);
    } else {
      out.push(carry_, fallback_rate_bps);
    }
    carry_ = 0.0;
  }

 private:
  double carry_ = 0.0;
};

/// The outage renewal process spliced into a segment sequence, one base
/// segment at a time: the kOutage pass over a materialized trace and
/// TraceStream's lazy outage keys both run it. Draw order (fixed): one
/// exponential(mean interval) on construction; per outage a
/// uniform(min, max) duration, then the exponential gap to the next. An
/// outage starts where the base timeline reaches the drawn time strictly
/// inside a segment, and inserts its duration there. The caller flushes
/// its emitter after the last base segment.
class OutageSplice {
 public:
  OutageSplice() = default;
  /// Asserts mean_interval_s > 0 and 0 < min_duration_s <= max_duration_s,
  /// then draws the first gap from `rng`.
  OutageSplice(double mean_interval_s, double min_duration_s,
               double max_duration_s, util::Rng& rng);

  /// Splices one base segment into `out` through `emit`. Calls
  /// on_outage(start_s, duration_s) for each outage inserted, in output
  /// time.
  template <class Out, class OnOutage>
  void splice(double duration_s, double rate_bps, util::Rng& rng,
              SegmentEmitter& emit, Out& out, OnOutage&& on_outage) {
    double seg_remaining = duration_s;
    while (seg_remaining > 0.0) {
      if (t_ + seg_remaining <= next_outage_) {
        emit.emit(out, seg_remaining, rate_bps);
        t_ += seg_remaining;
        seg_remaining = 0.0;
      } else {
        const double before = next_outage_ - t_;
        emit.emit(out, before, rate_bps);
        const double outage = rng.uniform(min_duration_s_, max_duration_s_);
        emit.emit(out, outage, 0.0);
        on_outage(next_outage_, outage);
        t_ = next_outage_ + outage;
        seg_remaining -= before;
        next_outage_ = t_ + rng.exponential(mean_interval_s_);
      }
    }
  }

 private:
  double mean_interval_s_ = 0.0, min_duration_s_ = 0.0,
         max_duration_s_ = 0.0;
  double t_ = 0.0;  ///< output time spliced so far
  double next_outage_ = 0.0;
};

/// Applies one fault pass to `base`, clearing and filling `out`.
/// Consumes rng draws in the documented per-event order; appends the
/// injected events (in this pass's output time) to `*events` when
/// non-null. `out` must not alias `base`.
void apply_fault_spec(const std::vector<CapacityTrace::Segment>& base,
                      const FaultSpec& spec, util::Rng& rng,
                      std::vector<CapacityTrace::Segment>& out,
                      std::vector<InjectedFault>* events = nullptr);

/// Applies every pass of `plan` in order, each over the previous pass's
/// output, clearing and filling `out` with the final segment list and
/// appending all injected events -- with start times shifted into FINAL
/// output time -- to `*events`. Allocation-free once `scratch` and `out`
/// have grown to the workload. `out` must alias neither `base` nor a
/// scratch buffer. An empty plan copies `base` into `out` and consumes no
/// randomness.
void apply_fault_plan(const std::vector<CapacityTrace::Segment>& base,
                      const FaultPlan& plan, util::Rng& rng,
                      FaultScratch& scratch,
                      std::vector<CapacityTrace::Segment>& out,
                      std::vector<InjectedFault>* events = nullptr);

/// Convenience wrapper: returns a copy of `base` with the plan applied
/// (same loop flag). An empty plan returns an unchanged copy.
CapacityTrace with_faults(const CapacityTrace& base, const FaultPlan& plan,
                          util::Rng& rng,
                          std::vector<InjectedFault>* events = nullptr);

/// True if any injected fault window intersects [t0_s, t1_s] in absolute
/// session time. Fault events live in the trace's first cycle; for a
/// looping trace every cycle repetition of each fault is considered
/// (`cycle_s` is the OUTPUT trace's cycle_duration_s()).
bool fault_overlaps(const std::vector<InjectedFault>& faults, double cycle_s,
                    bool loops, double t0_s, double t1_s);

/// Parses a fault-plan spec string (docs/faults.md). Grammar:
///
///   spec  := "" | "off" | "none" | pass (';' pass)*
///   pass  := kind (':' kv (',' kv)*)?
///   kind  := "outage" | "spike" | "failover"
///   kv    := key '=' range
///   key   := "every" | "dur" | "depth" | "shift"
///   range := NUM | NUM '..' NUM
///
/// `every` is the mean interval (s), `dur` the duration range (s),
/// `depth` the spike capacity-factor range, `shift` the failover regime
/// factor range. Omitted keys take per-kind defaults. Returns false and
/// sets `*error` (when non-null) on malformed input; `*plan` is left in
/// an unspecified state on failure.
bool parse_fault_plan(const std::string& spec, FaultPlan* plan,
                      std::string* error = nullptr);

/// Canonical spec string for a plan; parse_fault_plan(to_spec(p)) == p.
std::string to_spec(const FaultPlan& plan);

}  // namespace bba::net
