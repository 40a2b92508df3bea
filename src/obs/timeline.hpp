// Fleet telemetry: deterministic time-bucketed aggregation of every
// simulated session.
//
// The source paper is a measurement study -- Netflix dashboards of rebuffer
// rate and video rate per time-of-day across days of A/B traffic. The
// TimelineAggregator reproduces that view for the harness: every finished
// session (fused and virtual player paths and replays alike -- all of
// them funnel through the SessionBlockRunner fold) is folded into one
// per-(day, time-of-day window, group) cell, plus per-group quantile
// sketches for video rate, startup delay, and buffer occupancy.
//
// Invariants, in order of importance:
//   * Canonical-order folding: callers record() from the block runner's
//     sequential fold, so the aggregate -- and its serialized bytes -- are
//     identical at any --threads.
//   * Integer-only cells: every accumulator is a u64 (durations in 1e-6 s
//     units, rounded per session exactly like obs::HistSlot::sum_micro).
//     Doubles are banned here because FP addition is not associative:
//     integer cells make merge() exact in any association or order, so
//     per-shard partial runs combine to the single-run artifact byte for
//     byte. This is the serialization seed for the ROADMAP
//     checkpoint/resume + multi-machine sharding item.
//   * Zero steady-state allocations: begin_run() sizes everything up
//     front; record() is pure array arithmetic (the hot-path bench
//     enforces this).
//
// The emitted artifact (`--timeline-out` / $BBA_TIMELINE, schema
// "bba.timeline.v1") is rendered by tools/bba_obs_cli.cpp. See
// docs/observability.md ("Fleet telemetry") for the cell schema and merge
// semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "stats/sketch.hpp"

namespace bba::obs {

/// One (day, window, group) cell. All integers -- see the file comment.
struct TimelineCell {
  std::uint64_t sessions = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t rebuffers = 0;
  std::uint64_t fault_stalls = 0;   ///< stalls attributed to injected faults
  std::uint64_t switches = 0;
  std::uint64_t play_micro = 0;     ///< played seconds, 1e-6 units
  std::uint64_t rebuffer_micro = 0; ///< stall seconds, 1e-6 units
  std::uint64_t join_micro = 0;     ///< summed startup delay, 1e-6 units
  /// Time-weighted rate numerator: sum of round(avg_rate_bps * play_s /
  /// 1000) per session, i.e. kilobits of delivered video. Divide by play
  /// seconds for the cell's play-time-weighted average rate.
  std::uint64_t rate_play_kbit = 0;

  bool empty() const { return sessions == 0; }

  /// Seconds -> 1e-6 s units with the HistSlot::sum_micro rounding
  /// convention. Rounding happens once, per session, before any addition,
  /// so cell sums are integer-exact under sharding.
  static std::uint64_t to_micro(double v) {
    return v > 0.0 ? static_cast<std::uint64_t>(v * 1e6 + 0.5) : 0;
  }

  /// Folds one finished session into the cell -- THE cell arithmetic,
  /// shared by the TimelineAggregator and the HealthMonitor (obs/monitor)
  /// so both sides see bit-identical aggregates for the same sessions.
  void fold(const sim::SessionMetrics& m) {
    sessions += 1;
    abandoned += m.abandoned ? 1 : 0;
    rebuffers += static_cast<std::uint64_t>(m.rebuffer_count);
    fault_stalls += static_cast<std::uint64_t>(m.fault_stall_count);
    switches += static_cast<std::uint64_t>(m.switch_count);
    play_micro += to_micro(m.play_s);
    rebuffer_micro += to_micro(m.rebuffer_s);
    join_micro += to_micro(m.join_s);
    const double kbit = m.avg_rate_bps * m.play_s / 1000.0;
    rate_play_kbit +=
        kbit > 0.0 ? static_cast<std::uint64_t>(kbit + 0.5) : 0;
  }

  void merge(const TimelineCell& o) {
    sessions += o.sessions;
    abandoned += o.abandoned;
    rebuffers += o.rebuffers;
    fault_stalls += o.fault_stalls;
    switches += o.switches;
    play_micro += o.play_micro;
    rebuffer_micro += o.rebuffer_micro;
    join_micro += o.join_micro;
    rate_play_kbit += o.rate_play_kbit;
  }
};

/// Per-group distribution sketches (one value per session each).
struct GroupSketches {
  stats::QuantileSketch rate_bps;   ///< delivered video rate
  stats::QuantileSketch join_s;     ///< startup delay
  stats::QuantileSketch buffer_s;   ///< session mean buffer level
};

class TimelineAggregator {
 public:
  /// Declares the grid and allocates it. Idempotent: the first call
  /// configures; later calls must agree on seed, groups, and
  /// windows_per_day, and may only grow `days` (the sequential engine
  /// extends the grid as reallocated budget draws deeper keys).
  void begin_run(std::uint64_t seed, const std::vector<std::string>& groups,
                 std::size_t days, std::size_t windows_per_day);

  bool configured() const { return !groups_.empty(); }

  /// Folds one finished session into its cell and its group's sketches.
  /// Pure array arithmetic -- no allocation, no locking; call from the
  /// block runner's sequential fold (canonical key order).
  void record(std::size_t day, std::size_t window, std::size_t group,
              const sim::SessionMetrics& m);

  /// Integer-exact merge of another aggregator (a shard's partial run).
  /// Associative and commutative. The shards must agree on seed, group
  /// names, and windows_per_day; days may differ (the result covers the
  /// maximum). Returns false (and merges nothing) on a mismatch.
  bool merge(const TimelineAggregator& other);

  /// Serializes the full state as a single-line JSON document, schema
  /// "bba.timeline.v1". All numbers are integers and cells are emitted in
  /// (day, window, group) order with empty cells skipped, so the bytes
  /// are a pure function of the aggregate state: thread-count invariance
  /// and shard-merge exactness are byte-testable.
  std::string to_json() const;

  std::uint64_t seed() const { return seed_; }
  std::size_t days() const { return days_; }
  std::size_t windows_per_day() const { return windows_; }
  std::size_t num_groups() const { return groups_.size(); }
  const std::vector<std::string>& group_names() const { return groups_; }

  const TimelineCell& cell(std::size_t day, std::size_t window,
                           std::size_t group) const;
  const GroupSketches& sketches(std::size_t group) const;

  /// Checkpoint-restore hooks (exp/checkpoint.cpp): mutable access to one
  /// cell / one group's sketches after begin_run() declared the grid. The
  /// cells are integers and the sketches rebuild through their raw-count
  /// hooks, so a restored aggregator is bit-identical to the original.
  TimelineCell& mutable_cell(std::size_t day, std::size_t window,
                             std::size_t group);
  GroupSketches& mutable_sketches(std::size_t group);

  /// Sum of a group's cells over the whole grid (per-round snapshots in
  /// the sequential engine's decision log).
  TimelineCell group_total(std::size_t group) const;

 private:
  std::size_t cell_index(std::size_t day, std::size_t window,
                         std::size_t group) const {
    return (day * windows_ + window) * groups_.size() + group;
  }

  std::uint64_t seed_ = 0;
  std::size_t days_ = 0;
  std::size_t windows_ = 0;
  std::vector<std::string> groups_;
  std::vector<TimelineCell> cells_;       ///< [(day*W + window)*G + group]
  std::vector<GroupSketches> sketches_;   ///< [group]
};

}  // namespace bba::obs
