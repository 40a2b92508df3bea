#include "net/fault_inject.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace bba::net {

namespace {

/// Segments at or below this duration are not emitted on their own: a
/// fault boundary that lands (up to floating-point residue) on a segment
/// boundary would otherwise produce a near-zero-duration segment -- the
/// historical insert_outages bug. Sub-threshold slices are carried into
/// the next emitted segment so total trace duration is conserved.
constexpr double kMinSegmentS = 1e-9;

class SegmentEmitter {
 public:
  explicit SegmentEmitter(std::vector<CapacityTrace::Segment>& out)
      : out_(out) {
    out_.clear();
  }

  void emit(double duration_s, double rate_bps) {
    duration_s += carry_;
    carry_ = 0.0;
    if (duration_s <= kMinSegmentS) {
      carry_ = duration_s;
      return;
    }
    out_.push_back({duration_s, rate_bps});
  }

  /// Folds a trailing sub-threshold slice into the last emitted segment so
  /// no duration is lost at the end of the trace.
  void flush(double fallback_rate_bps) {
    if (carry_ <= 0.0) return;
    if (!out_.empty()) {
      out_.back().duration_s += carry_;
    } else {
      out_.push_back({carry_, fallback_rate_bps});
    }
    carry_ = 0.0;
  }

 private:
  std::vector<CapacityTrace::Segment>& out_;
  double carry_ = 0.0;
};

/// Time insertion at output time `at_s`: every event recorded by an
/// EARLIER pass (index in [first, size) with start >= at_s, which same-pass
/// events never satisfy) moves later by the inserted duration.
void shift_events(std::vector<InjectedFault>* events, std::size_t first,
                  double at_s, double inserted_s) {
  if (events == nullptr) return;
  for (std::size_t i = first; i < events->size(); ++i) {
    if ((*events)[i].start_s >= at_s) (*events)[i].start_s += inserted_s;
  }
}

/// Hard outages at exponential intervals. Draw order (fixed): one initial
/// exponential(mean_interval); per outage a uniform(min,max) duration then
/// the exponential gap to the next. This is bit-identical RNG consumption
/// to the original trace_gen insert_outages.
void pass_outage(const std::vector<CapacityTrace::Segment>& base,
                 const FaultSpec& spec, util::Rng& rng,
                 std::vector<CapacityTrace::Segment>& out,
                 std::vector<InjectedFault>* events, std::size_t first) {
  SegmentEmitter emit(out);
  double next_outage = rng.exponential(spec.mean_interval_s);
  double t = 0.0;
  for (const auto& seg : base) {
    double seg_remaining = seg.duration_s;
    while (seg_remaining > 0.0) {
      if (t + seg_remaining <= next_outage) {
        emit.emit(seg_remaining, seg.rate_bps);
        t += seg_remaining;
        seg_remaining = 0.0;
      } else {
        const double before = next_outage - t;
        emit.emit(before, seg.rate_bps);
        const double outage =
            rng.uniform(spec.min_duration_s, spec.max_duration_s);
        emit.emit(outage, 0.0);
        shift_events(events, first, next_outage, outage);
        if (events != nullptr) {
          events->push_back({FaultKind::kOutage, next_outage, outage, 0.0});
        }
        t = next_outage + outage;
        seg_remaining -= before;
        next_outage = t + rng.exponential(spec.mean_interval_s);
      }
    }
  }
  emit.flush(base.empty() ? 0.0 : base.back().rate_bps);
}

/// Multiplicative capacity dips overlaid in place (the timeline is not
/// stretched). Draw order per spike: uniform duration, uniform factor,
/// exponential gap to the next spike start.
void pass_spike(const std::vector<CapacityTrace::Segment>& base,
                const FaultSpec& spec, util::Rng& rng,
                std::vector<CapacityTrace::Segment>& out,
                std::vector<InjectedFault>* events) {
  SegmentEmitter emit(out);
  double t = 0.0;
  double win_end = 0.0;
  double factor = 1.0;
  double next_spike = rng.exponential(spec.mean_interval_s);
  for (const auto& seg : base) {
    double seg_remaining = seg.duration_s;
    while (seg_remaining > 0.0) {
      if (t < win_end) {
        const double span = std::min(seg_remaining, win_end - t);
        emit.emit(span, seg.rate_bps * factor);
        t += span;
        seg_remaining -= span;
      } else if (t + seg_remaining <= next_spike) {
        emit.emit(seg_remaining, seg.rate_bps);
        t += seg_remaining;
        seg_remaining = 0.0;
      } else {
        const double before = next_spike - t;
        emit.emit(before, seg.rate_bps);
        seg_remaining -= before;
        t = next_spike;
        const double dur =
            rng.uniform(spec.min_duration_s, spec.max_duration_s);
        factor = rng.uniform(spec.min_factor, spec.max_factor);
        win_end = t + dur;
        if (events != nullptr) {
          events->push_back({FaultKind::kSpike, t, dur, factor});
        }
        next_spike = win_end + rng.exponential(spec.mean_interval_s);
      }
    }
  }
  // A spike window that ran past the end of the segment list is only
  // partially present in the trace: report the effective duration.
  if (events != nullptr && !events->empty()) {
    InjectedFault& last = events->back();
    if (last.kind == FaultKind::kSpike && last.start_s + last.duration_s > t) {
      last.duration_s = t - last.start_s;
    }
  }
  emit.flush(base.empty() ? 0.0 : base.back().rate_bps);
}

/// CDN failover: a blackout is inserted (stretching the timeline) and all
/// capacity after it is multiplied by the drawn regime factor; factors
/// compound across failovers. Draw order per failover: uniform blackout
/// duration, uniform regime factor, exponential gap to the next.
void pass_failover(const std::vector<CapacityTrace::Segment>& base,
                   const FaultSpec& spec, util::Rng& rng,
                   std::vector<CapacityTrace::Segment>& out,
                   std::vector<InjectedFault>* events, std::size_t first) {
  SegmentEmitter emit(out);
  double t = 0.0;
  double regime = 1.0;
  double next_fail = rng.exponential(spec.mean_interval_s);
  for (const auto& seg : base) {
    double seg_remaining = seg.duration_s;
    while (seg_remaining > 0.0) {
      if (t + seg_remaining <= next_fail) {
        emit.emit(seg_remaining, seg.rate_bps * regime);
        t += seg_remaining;
        seg_remaining = 0.0;
      } else {
        const double before = next_fail - t;
        emit.emit(before, seg.rate_bps * regime);
        seg_remaining -= before;
        const double blackout =
            rng.uniform(spec.min_duration_s, spec.max_duration_s);
        const double shift =
            rng.uniform(spec.min_factor, spec.max_factor);
        emit.emit(blackout, 0.0);
        shift_events(events, first, next_fail, blackout);
        if (events != nullptr) {
          events->push_back({FaultKind::kFailover, next_fail, blackout, shift});
        }
        regime *= shift;
        t = next_fail + blackout;
        next_fail = t + rng.exponential(spec.mean_interval_s);
      }
    }
  }
  emit.flush(base.empty() ? 0.0 : base.back().rate_bps);
}

void apply_pass(const std::vector<CapacityTrace::Segment>& base,
                const FaultSpec& spec, util::Rng& rng,
                std::vector<CapacityTrace::Segment>& out,
                std::vector<InjectedFault>* events, std::size_t first) {
  BBA_ASSERT(&base != &out, "fault pass output must not alias its input");
  BBA_ASSERT(spec.mean_interval_s > 0.0, "mean fault interval must be > 0");
  BBA_ASSERT(spec.min_duration_s > 0.0 &&
                 spec.max_duration_s >= spec.min_duration_s,
             "fault duration range invalid");
  switch (spec.kind) {
    case FaultKind::kOutage:
      pass_outage(base, spec, rng, out, events, first);
      return;
    case FaultKind::kSpike:
      BBA_ASSERT(spec.min_factor >= 0.0 &&
                     spec.max_factor >= spec.min_factor,
                 "spike factor range invalid");
      pass_spike(base, spec, rng, out, events);
      return;
    case FaultKind::kFailover:
      BBA_ASSERT(spec.min_factor > 0.0 &&
                     spec.max_factor >= spec.min_factor,
                 "failover factor range invalid");
      pass_failover(base, spec, rng, out, events, first);
      return;
  }
  BBA_ASSERT(false, "unknown fault kind");
}

}  // namespace

void apply_fault_spec(const std::vector<CapacityTrace::Segment>& base,
                      const FaultSpec& spec, util::Rng& rng,
                      std::vector<CapacityTrace::Segment>& out,
                      std::vector<InjectedFault>* events) {
  apply_pass(base, spec, rng, out, events,
             events != nullptr ? events->size() : 0);
}

void apply_fault_plan(const std::vector<CapacityTrace::Segment>& base,
                      const FaultPlan& plan, util::Rng& rng,
                      FaultScratch& scratch,
                      std::vector<CapacityTrace::Segment>& out,
                      std::vector<InjectedFault>* events) {
  if (plan.specs.empty()) {
    out.assign(base.begin(), base.end());
    return;
  }
  const std::size_t first = events != nullptr ? events->size() : 0;
  const std::vector<CapacityTrace::Segment>* cur = &base;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    std::vector<CapacityTrace::Segment>& dst =
        i + 1 == plan.specs.size()
            ? out
            : (cur == &scratch.ping ? scratch.pong : scratch.ping);
    apply_pass(*cur, plan.specs[i], rng, dst, events, first);
    cur = &dst;
  }
}

CapacityTrace with_faults(const CapacityTrace& base, const FaultPlan& plan,
                          util::Rng& rng,
                          std::vector<InjectedFault>* events) {
  FaultScratch scratch;
  std::vector<CapacityTrace::Segment> out;
  apply_fault_plan(base.segments(), plan, rng, scratch, out, events);
  return CapacityTrace(std::move(out), base.loops());
}

bool fault_overlaps(const std::vector<InjectedFault>& faults, double cycle_s,
                    bool loops, double t0_s, double t1_s) {
  for (const InjectedFault& f : faults) {
    if (f.duration_s <= 0.0) continue;
    if (!loops || cycle_s <= 0.0) {
      if (f.start_s <= t1_s && f.start_s + f.duration_s >= t0_s) return true;
      continue;
    }
    // Occurrence k (k >= 0) covers [start + k*cycle, start + dur + k*cycle];
    // it intersects [t0, t1] iff kmin <= k <= kmax below.
    const double kmax = std::floor((t1_s - f.start_s) / cycle_s);
    const double kmin =
        std::ceil((t0_s - f.start_s - f.duration_s) / cycle_s);
    if (kmax >= 0.0 && kmax >= kmin) return true;
  }
  return false;
}

namespace {

FaultSpec default_spec(FaultKind kind) {
  switch (kind) {
    case FaultKind::kOutage:
      // Matches trace_gen's OutageConfig defaults (Sec. 7.1 outages).
      return {FaultKind::kOutage, 600.0, 15.0, 35.0, 0.0, 0.0};
    case FaultKind::kSpike:
      return {FaultKind::kSpike, 300.0, 3.0, 10.0, 0.10, 0.25};
    case FaultKind::kFailover:
      return {FaultKind::kFailover, 1800.0, 1.0, 4.0, 0.30, 0.70};
  }
  return {};
}

/// "a..b" or "a" (lo == hi).
bool parse_range(std::string_view text, double* lo, double* hi) {
  const std::size_t dots = text.find("..");
  if (dots == std::string_view::npos) {
    if (!util::parse_num(text, lo)) return false;
    *hi = *lo;
    return true;
  }
  return util::parse_num(text.substr(0, dots), lo) &&
         util::parse_num(text.substr(dots + 2), hi);
}

}  // namespace

bool parse_fault_plan(const std::string& spec, FaultPlan* plan,
                      std::string* error) {
  BBA_ASSERT(plan != nullptr, "parse_fault_plan requires a plan");
  plan->specs.clear();
  auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (spec.empty() || spec == "off" || spec == "none") return true;

  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view pass = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);

    const std::size_t colon = pass.find(':');
    const std::string_view kind_name = pass.substr(0, colon);
    FaultKind kind;
    if (kind_name == "outage") {
      kind = FaultKind::kOutage;
    } else if (kind_name == "spike") {
      kind = FaultKind::kSpike;
    } else if (kind_name == "failover") {
      kind = FaultKind::kFailover;
    } else {
      return fail(util::format("unknown fault kind '%.*s'",
                               static_cast<int>(kind_name.size()),
                               kind_name.data()));
    }
    FaultSpec fs = default_spec(kind);

    std::string_view kvs =
        colon == std::string_view::npos ? std::string_view{}
                                        : pass.substr(colon + 1);
    while (!kvs.empty()) {
      const std::size_t comma = kvs.find(',');
      const std::string_view kv = kvs.substr(0, comma);
      kvs = comma == std::string_view::npos ? std::string_view{}
                                            : kvs.substr(comma + 1);
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        return fail(util::format("expected key=value, got '%.*s'",
                                 static_cast<int>(kv.size()), kv.data()));
      }
      const std::string_view key = kv.substr(0, eq);
      const std::string_view value = kv.substr(eq + 1);
      double lo = 0.0;
      double hi = 0.0;
      if (!parse_range(value, &lo, &hi)) {
        return fail(util::format("bad number in '%.*s'",
                                 static_cast<int>(kv.size()), kv.data()));
      }
      if (key == "every") {
        if (lo != hi) return fail("'every' takes a single value, not a range");
        fs.mean_interval_s = lo;
      } else if (key == "dur") {
        fs.min_duration_s = lo;
        fs.max_duration_s = hi;
      } else if (key == "depth" && kind == FaultKind::kSpike) {
        fs.min_factor = lo;
        fs.max_factor = hi;
      } else if (key == "shift" && kind == FaultKind::kFailover) {
        fs.min_factor = lo;
        fs.max_factor = hi;
      } else {
        return fail(util::format("key '%.*s' not valid for %s",
                                 static_cast<int>(key.size()), key.data(),
                                 fault_kind_name(kind)));
      }
    }

    if (fs.mean_interval_s <= 0.0) return fail("'every' must be > 0");
    if (fs.min_duration_s <= 0.0 || fs.max_duration_s < fs.min_duration_s) {
      return fail("'dur' range invalid (need 0 < lo <= hi)");
    }
    if (kind == FaultKind::kSpike &&
        (fs.min_factor < 0.0 || fs.max_factor < fs.min_factor)) {
      return fail("'depth' range invalid (need 0 <= lo <= hi)");
    }
    if (kind == FaultKind::kFailover &&
        (fs.min_factor <= 0.0 || fs.max_factor < fs.min_factor)) {
      return fail("'shift' range invalid (need 0 < lo <= hi)");
    }
    plan->specs.push_back(fs);
  }
  return true;
}

std::string to_spec(const FaultPlan& plan) {
  std::string out;
  for (const FaultSpec& fs : plan.specs) {
    if (!out.empty()) out += ';';
    out += fault_kind_name(fs.kind);
    out += util::format(":every=%.10g", fs.mean_interval_s);
    if (fs.min_duration_s == fs.max_duration_s) {
      out += util::format(",dur=%.10g", fs.min_duration_s);
    } else {
      out += util::format(",dur=%.10g..%.10g", fs.min_duration_s,
                          fs.max_duration_s);
    }
    const char* factor_key = fs.kind == FaultKind::kSpike     ? "depth"
                             : fs.kind == FaultKind::kFailover ? "shift"
                                                               : nullptr;
    if (factor_key != nullptr) {
      if (fs.min_factor == fs.max_factor) {
        out += util::format(",%s=%.10g", factor_key, fs.min_factor);
      } else {
        out += util::format(",%s=%.10g..%.10g", factor_key, fs.min_factor,
                            fs.max_factor);
      }
    }
  }
  return out;
}

}  // namespace bba::net
