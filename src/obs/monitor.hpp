// Fleet health monitor: deterministic online drift detection, SLO burn
// alerts, and alert-triggered trace capture.
//
// The source paper's result came from *watching* a production fleet --
// per-day, per-window dashboards of rebuffer rate and video rate across
// A/B traffic. The HealthMonitor is the layer that reacts to that stream:
// it rides the canonical sequential fold in exp::SessionBlockRunner (the
// same single-writer point the TimelineAggregator uses, so fused,
// virtual-dispatch, and replayed sessions all feed it identically) and runs
// per-(group, metric) online detectors over per-(day, window) cell
// aggregates:
//
//   * EWMA control bands and CUSUM change-point detection (stats/detect.hpp)
//     over four derived metrics -- rebuffer ratio, mean join time, played
//     rate, fault-stall share;
//   * windowed SLO burn rules ("rebuffer ratio > X for N consecutive
//     windows", ditto join time).
//
// Determinism contract, same as everything else in the repo:
//
//   * Detector state is a pure function of the fold prefix. Cells close in
//     canonical (day, window) order -- a cell is complete the moment the
//     first session of a later cell arrives -- and the detector arithmetic
//     is a fixed double-op sequence, so the emitted "bba.alerts.v1" JSONL
//     artifact is byte-identical at any --threads.
//   * The whole monitor state (cells, detector doubles as raw bits, alert
//     log, capture queue) serializes into the checkpoint container's ALRT
//     section (exp/checkpoint.cpp), so kill + --resume reproduces the
//     artifact byte for byte.
//   * Under --shard K/M the per-shard cell subsequence would differ from
//     the unsharded fold, so sharded runs set deferred(): cells accumulate
//     but no detector consumes them. bba_merge unions the disjoint cells,
//     and the merged checkpoint's --resume render refold()s the full grid
//     in canonical order -- producing the unsharded run's bytes exactly
//     (alert lines carry no per-session data, only cell aggregates).
//
// A fired alert flips the run into evidence capture for its (day, window,
// group) cell: the monitor tracks the top-K offender sessions per (group,
// metric) in the open cell, and the harness drains take_captures() after
// the grid completes, re-simulating each offender through the trace sink
// with an {"ev":"alert",...} marker line (the PR 3 anomaly machinery
// generalized from one static threshold to monitor-driven capture).
//
// docs/monitoring.md documents detectors, schema, and capture semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeline.hpp"
#include "sim/metrics.hpp"
#include "stats/detect.hpp"

namespace bba::obs {

/// The cell metrics the detectors watch, in detector order.
inline constexpr std::size_t kNumMonitorMetrics = 4;
/// The SLO burn rules per group: rebuffer-ratio, then join-time.
inline constexpr std::size_t kNumMonitorSlos = 2;

/// Derives metric `metric` from a closed cell: rebuffer_ratio (stall /
/// (play + stall)), join_s (mean startup delay), rate_kbps (play-weighted
/// delivered rate), fault_share (fault-attributed stalls / stalls). A
/// fixed expression over the integer cell fields, so the double is a pure
/// function of the cell.
double monitor_metric_value(const TimelineCell& cell, std::size_t metric);

/// The largest top_k a spec may ask for. Each (group, metric) reserves
/// top_k candidate slots up front and every alert replays up to top_k
/// sessions, so an unbounded value turns into a giant allocation before
/// the first session; capture is evidence, not a census of the window.
inline constexpr std::uint64_t kMaxTopK = 1024;

/// Detector and SLO parameters (--alert-spec).
struct MonitorSpec {
  std::uint64_t warmup = 8;     ///< baseline cells before detectors arm
  double ewma_alpha = 0.2;
  double ewma_k = 3.0;          ///< control band half-width in sds
  double cusum_k = 0.5;
  double cusum_h = 5.0;
  double sd_floor = 0.05;       ///< sd floor as a fraction of |mean|
  double slo_rebuffer_ratio = 0.02;
  std::uint64_t slo_rebuffer_windows = 3;
  double slo_join_s = 10.0;
  std::uint64_t slo_join_windows = 3;
  std::uint64_t top_k = 2;      ///< offender sessions captured per alert
  bool capture = true;          ///< alert-triggered trace capture on/off

  /// Parses "key=value,key=value" (keys above, e.g. "warmup=2,cusum_h=1").
  /// Values follow the one number rule (util/csv.hpp): reals must be
  /// finite and counts unsigned. Returns false with a one-line diagnostic
  /// in *error.
  static bool parse(const std::string& spec, MonitorSpec* out,
                    std::string* error);

  /// The `"spec":{...}` JSON object for the artifact header. Fixed key
  /// order; byte-stable for identical specs.
  std::string to_json() const;
};

/// One alert-triggered capture request: re-simulate session (day, window,
/// session) under group `group` with `marker` embedded in its trace.
struct MonitorCapture {
  std::uint64_t day = 0;
  std::uint64_t window = 0;
  std::uint64_t group = 0;
  std::uint64_t session = 0;
  std::string marker;  ///< the {"ev":"alert",...} trace line, '\n'-terminated
};

/// Top-K offender candidates for one (group, metric) in the open cell.
struct MonitorCandidates {
  std::vector<std::uint64_t> sessions;
  std::vector<double> scores;
};

/// The monitor's complete internal state -- plain data so the checkpoint
/// layer serializes it field by field (ALRT section) and a restored
/// monitor is bit-identical to the interrupted one.
struct MonitorState {
  bool deferred = false;    ///< sharded run: accumulate cells, no detectors
  std::uint64_t seed = 0;
  std::size_t days = 0;
  std::size_t windows = 0;
  std::vector<std::string> groups;
  std::vector<TimelineCell> cells;    ///< [(day*W + window)*G + group]
  std::uint64_t consumed = 0;  ///< linear (day*W+window) cells consumed
  std::uint64_t open = 0;      ///< linear cell currently accumulating
  std::vector<stats::EwmaState> ewma;    ///< [group*kNumMonitorMetrics + m]
  std::vector<stats::CusumState> cusum;  ///< [group*kNumMonitorMetrics + m]
  std::vector<stats::BurnState> burn;    ///< [group*2 + slo]
  std::uint64_t alert_seq = 0;
  std::string alert_log;  ///< concatenated {"ev":"alert",...} lines
  std::vector<MonitorCandidates> cand;   ///< [group*kNumMonitorMetrics + m]
  std::vector<MonitorCapture> pending;   ///< fired, not yet drained
};

class HealthMonitor {
 public:
  explicit HealthMonitor(MonitorSpec spec);

  const MonitorSpec& spec() const { return spec_; }

  /// Sharded runs defer detector folding (see the file comment). Set
  /// before the first record().
  void set_deferred(bool deferred) { st_.deferred = deferred; }
  bool deferred() const { return st_.deferred; }

  /// Declares the grid. Idempotent with the TimelineAggregator's rules:
  /// later calls must agree on seed/groups/windows and may only grow days.
  void begin_run(std::uint64_t seed, const std::vector<std::string>& groups,
                 std::size_t days, std::size_t windows_per_day);

  bool configured() const { return !st_.groups.empty(); }

  /// Folds one finished session. Call from the block runner's sequential
  /// fold in canonical (day, window, session) order; crossing into a new
  /// (day, window) cell closes every earlier cell through the detectors.
  /// Zero steady-state allocations on the no-alert path.
  void record(std::size_t day, std::size_t window, std::size_t group,
              std::uint64_t session, const sim::SessionMetrics& m);

  /// Closes the trailing open cell (detectors consume through the end of
  /// the grid). Idempotent; a no-op while deferred.
  void finalize();

  /// Rebuilds the detector fold from the accumulated cells: resets every
  /// detector and the alert log, clears deferred, and consumes the full
  /// grid in canonical order. Used when a merged (sharded) checkpoint is
  /// rendered -- the refolded artifact equals the unsharded run's byte for
  /// byte. No captures are generated (per-session data is gone).
  void refold();

  /// Drains the fired capture requests in canonical (day, window, group,
  /// session) order, deduplicated (first-firing alert's marker wins).
  std::vector<MonitorCapture> take_captures();

  std::uint64_t alerts_fired() const { return st_.alert_seq; }

  /// The "bba.alerts.v1" artifact: header line, the alert lines in fold
  /// order, and an {"ev":"summary",...} trailer. No trailing newline. A
  /// pure function of (spec, cells) once finalized.
  std::string render() const;

  // Checkpoint hooks (exp/checkpoint.cpp).
  const MonitorState& state() const { return st_; }
  void restore(MonitorState st);

 private:
  void consume_through(std::uint64_t linear_end);
  void consume_cell(std::uint64_t linear);
  void note_candidate(std::size_t group, std::uint64_t session,
                      const sim::SessionMetrics& m);
  void enqueue_captures(std::uint64_t linear, std::size_t group,
                        std::size_t metric, const std::string& marker);

  MonitorSpec spec_;
  MonitorState st_;
};

}  // namespace bba::obs
