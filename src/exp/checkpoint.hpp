// Checkpoint/resume and sharded runs for the experiment harness.
//
// A "bbackpt" checkpoint is a binary container (the one btrace traces use,
// util/binio.hpp) holding the complete resumable state of an A/B or
// paper-report run at a canonical-key cursor:
//
//   * the cursor itself -- how far the strictly sequential fold has walked
//     the canonical (day, window, session) key sequence;
//   * every exp::WindowMetrics cell, raw IEEE-754 bits. The cells are
//     order-sensitive weighted incremental means (accumulate_session), so
//     a resumed run CONTINUES the fold from the cursor in canonical order;
//     it never re-folds, and the restored doubles must be bit-exact;
//   * the fleet timeline (integer cells + quantile sketches -- exact under
//     restore and merge by construction);
//   * the trace collector's tallies and flushed byte offset, so the trace
//     file is truncated back to the checkpoint and appended to;
//   * for sequential runs, every arm's stats::Running state and the
//     decision log so far.
//
// Invariant (tests/test_exp_checkpoint.cpp + the resume-smoke CI job):
// killing a run at any checkpoint and resuming reproduces the
// uninterrupted run's stdout, report, timeline artifact, and trace file
// byte for byte, at any --threads value.
//
// Sharding rides the same container: `--shard K/M` partitions the
// canonical grid by (day, window) cell -- shard K (1-based) owns the cells
// with (day * kWindowsPerDay + window) % M == K-1 -- so every cell's fold
// sequence is wholly inside one shard and the per-cell doubles come out
// bit-equal to the single run's. Each shard emits a checkpoint-format
// partial; `bba_merge checkpoints` folds the partials into the identical
// single-run checkpoint (cell union + integer-exact timeline merge), which
// `--resume` then renders without simulating anything.
//
// The schema on that container (docs/file_formats.md): header magic
// "BBACKPT1", one record per section, and a footer listing each section's
// (u32 magic, varint offset, varint length) behind the "BBACKIDX" trailer.
// Sections: "RUN0" (dimensions, groups, shard, cursor), "CELL" (window
// cells), "TLIN" (timeline), "TRCE" (trace tallies), "SEQS" (sequential
// engine state), "ALRT" (health monitor detector state + alert log).
// Unknown sections are skipped on read (forward compatibility); every
// payload is CRC-checked before parsing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/abtest.hpp"
#include "exp/session_key.hpp"
#include "obs/monitor.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace bba::exp {

inline constexpr char kCkptMagic[8] = {'B', 'B', 'A', 'C', 'K', 'P', 'T',
                                       '1'};
inline constexpr char kCkptTrailerMagic[8] = {'B', 'B', 'A', 'C',
                                              'K', 'I', 'D', 'X'};
inline constexpr std::uint32_t kCkptVersion = 1;
inline constexpr std::uint32_t kCkptFooterMagic = 0x58444943;  // "CIDX"
inline constexpr std::uint32_t kCkptSectionRun = 0x304e5552;   // "RUN0"
inline constexpr std::uint32_t kCkptSectionCells = 0x4c4c4543; // "CELL"
inline constexpr std::uint32_t kCkptSectionTimeline = 0x4e494c54;  // "TLIN"
inline constexpr std::uint32_t kCkptSectionTrace = 0x45435254;     // "TRCE"
inline constexpr std::uint32_t kCkptSectionSeq = 0x53514553;       // "SEQS"
inline constexpr std::uint32_t kCkptSectionAlerts = 0x54524c41;    // "ALRT"

/// Checkpointed state of the sequential engine (src/seq), carried here so
/// the container has one home; bba_seq links bba_exp. Plain data: the
/// engine reconstructs its ArmState from it via stats::Running::from_moments.
struct CheckpointSeq {
  std::uint64_t rounds = 0;
  std::uint64_t sessions_used = 0;
  std::uint64_t budget_sessions = 0;
  std::uint64_t next_key = 0;  ///< cursor into the canonical key sequence
  std::uint64_t batch_sessions = 0;
  std::uint64_t min_batches = 0;
  std::uint64_t baseline = 0;
  double confidence = 0.0;
  std::string metric;   ///< SeqMetric name; resume validates it matches
  std::string verdict;  ///< empty while running; set = run complete
  struct Arm {
    bool candidate = true;
    std::uint64_t eliminated_round = 0;
    long long n = 0;       ///< stats::Running moments, raw bits
    double mean = 0.0;
    double m2 = 0.0;
    double lo = 0.0;       ///< CI at the last completed round
    double hi = 0.0;
  };
  std::vector<Arm> arms;      ///< group order
  std::string decision_log;   ///< JSONL lines appended so far
};

/// One checkpoint: everything needed to continue (or just re-render) a
/// run. `cells` has the AbTestResult shape [group][day][window].
struct Checkpoint {
  std::uint32_t kind = 0;  ///< 0 = fixed A/B run, 1 = sequential run
  std::uint64_t seed = 0;
  std::uint64_t days = 0;
  std::uint64_t windows_per_day = 0;
  std::uint64_t sessions_per_window = 0;
  std::uint64_t shard_index = 1;  ///< 1-based, like --shard K/M
  std::uint64_t shard_count = 1;
  std::uint64_t total_keys = 0;   ///< this shard's canonical key count
  std::uint64_t cursor = 0;       ///< keys folded; == total_keys when done
  std::vector<std::string> groups;
  std::vector<std::vector<std::vector<WindowMetrics>>> cells;
  bool has_timeline = false;
  obs::TimelineAggregator timeline;
  bool has_trace = false;
  obs::TraceResumeState trace;
  bool has_seq = false;
  CheckpointSeq seq;
  /// Health monitor state (obs/monitor.hpp): cells, detector doubles as
  /// raw bits, alert log, capture queue. `alerts_spec_json` pins the
  /// detector configuration -- resuming with a different --alert-spec
  /// would change the fired alerts, so resume rejects a mismatch.
  bool has_alerts = false;
  obs::MonitorState alerts;
  std::string alerts_spec_json;

  bool complete() const { return cursor == total_keys; }
};

/// The most (group, day, window) cells a checkpoint's grid may hold: 2^22,
/// about 49,900 days of 7 groups. Readers reject a RUN0, TLIN or ALRT
/// section declaring more before allocating its grid (along with more
/// than 4096 groups, 2^20 days or 2^16 windows).
inline constexpr std::uint64_t kMaxCheckpointGridCells = std::uint64_t{1}
                                                         << 22;

/// Whether a run of `groups` x `days` x kWindowsPerDay cells fits those
/// caps; false with *error if not. Checkpointed runs call it before
/// simulating anything, so no run saves a checkpoint its own resume would
/// reject.
bool check_checkpoint_grid(std::uint64_t groups, std::uint64_t days,
                           std::string* error);

/// Serializes to / parses from the container bytes. parse validates the
/// header, trailer, footer CRC, and every section CRC; on failure returns
/// false with a diagnostic in *error and leaves *out unspecified.
std::string serialize_checkpoint(const Checkpoint& ck);
bool parse_checkpoint(const std::string& bytes, Checkpoint* out,
                      std::string* error);

/// File round trip. save is atomic: the bytes land in `path + ".tmp"`
/// first and rename into place, so a crash mid-save never corrupts the
/// previous checkpoint.
bool save_checkpoint(const Checkpoint& ck, const std::string& path,
                     std::string* error);
bool load_checkpoint(const std::string& path, Checkpoint* out,
                     std::string* error);

/// Folds complete shard partials (each --shard K/M, all M present, every
/// cursor at its total) into the checkpoint the unsharded run would have
/// written: cell union (each (day, window) cell lives in exactly one
/// shard), integer-exact timeline merge, cursor == full-grid total. Trace
/// state is dropped -- shard trace files merge separately (`bba_merge
/// traces`). Returns false with *error on dimension/shard-set mismatches.
bool merge_checkpoints(const std::vector<Checkpoint>& parts, Checkpoint* out,
                       std::string* error);

/// CLI/env knobs shared by bba_abtest, bba_paper_report, and the benches.
struct CheckpointOptions {
  std::string out;        ///< --checkpoint-out FILE ("" = no checkpoints)
  std::size_t every = 0;  ///< --checkpoint-every N keys (0 = only at end)
  std::string resume;     ///< --resume FILE ("" = fresh run)
  std::size_t shard_index = 1;  ///< --shard K/M, 1-based
  std::size_t shard_count = 1;
  /// Test hook (--checkpoint-kill N / $BBA_CHECKPOINT_KILL): exit(3) right
  /// after the Nth checkpoint save, simulating a mid-run kill at an exact,
  /// reproducible point. 0 = never.
  std::size_t kill_after = 0;

  bool any() const {
    return !out.empty() || !resume.empty() || shard_count > 1;
  }
  bool resuming() const { return !resume.empty(); }
  bool sharded() const { return shard_count > 1; }

  /// Parses "K/M" (1 <= K <= M). Returns false on malformed input.
  bool parse_shard(const std::string& spec);

  /// Environment defaults: BBA_CHECKPOINT_OUT, BBA_CHECKPOINT_EVERY,
  /// BBA_CHECKPOINT_RESUME, BBA_CHECKPOINT_SHARD ("K/M"),
  /// BBA_CHECKPOINT_KILL. Unset variables leave the defaults above.
  static CheckpointOptions from_env();
};

/// The instruments a checkpointed run carries, each saved in its own
/// section (TLIN, TRCE, ALRT); null = not configured.
struct CheckpointInstruments {
  obs::TimelineAggregator* timeline = nullptr;
  obs::TraceCollector* trace = nullptr;
  obs::HealthMonitor* monitor = nullptr;

  /// The ones obs::global() holds (a trace only while its file is ok);
  /// the monitor only if `monitor`.
  static CheckpointInstruments installed(bool monitor);
};

/// The save and resume protocol both checkpointed harnesses share: the
/// run's header, and which sections its instruments require.
struct RunCheckpoints {
  std::uint32_t kind;  ///< 0: run_ab_test_checkpointed, 1: seq engine
  const AbTestConfig& cfg;
  const CheckpointOptions& opts;
  std::vector<std::string> groups;
  CheckpointInstruments instruments;
  std::size_t saves = 0;

  /// Begins the timeline and the monitor on the run's grid; a sharded
  /// run's monitor defers its detectors to the merged resume.
  void begin_run() const;

  /// The run's header (kind, seed, dimensions, shard, groups) and a
  /// section per configured instrument; capturing the trace flushes it.
  /// The caller adds total_keys, cursor, cells and its own sections.
  Checkpoint snapshot() const;

  /// Saves `ck` to opts.out and notes "checkpoint: wrote FILE (progress)"
  /// on stderr; exits 3 after the --checkpoint-kill'th save.
  bool save(const Checkpoint& ck, const std::string& progress,
            std::string* error);

  /// Loads opts.resume and checks its kind, seed, dimensions and groups
  /// against this run's. Restores nothing.
  bool load(Checkpoint* ck, std::string* error) const;

  /// Restores every configured instrument from `ck`, which must carry its
  /// section (the trace file is truncated back to the checkpoint; a merged
  /// shard checkpoint's monitor is refolded by an unsharded run), then
  /// notes "checkpoint: resumed FILE at progress". Call it after the
  /// harness's own checks, since it rewrites the trace file.
  bool restore(Checkpoint& ck, const std::string& progress,
               std::string* error) const;
};

/// Number of keys in the canonical key sequence of shard
/// opts.shard_index/opts.shard_count of a run: every session of the
/// (day, window) cells whose index day * kWindowsPerDay + window is
/// shard_index - 1 modulo shard_count.
std::uint64_t shard_key_count(const AbTestConfig& cfg,
                              const CheckpointOptions& opts);

/// Key `index` of that sequence: session index % sessions_per_window of
/// cell (index / sessions_per_window) * shard_count + shard_index - 1. A
/// run derives each key from its index as it simulates it, instead of
/// holding a key list. Requires index < shard_key_count(cfg, opts).
SessionKey shard_key(const AbTestConfig& cfg, const CheckpointOptions& opts,
                     std::uint64_t index);

/// run_ab_test with checkpointing, resume, and sharding. With default
/// options this IS run_ab_test (one chunk, no files): identical fold,
/// identical bytes. Returns false with *error on a checkpoint problem
/// (unreadable/corrupt file, dimension mismatch, trace mismatch); the
/// simulation itself still aborts on programmer errors like run_ab_test.
bool run_ab_test_checkpointed(const std::vector<Group>& groups,
                              const media::VideoLibrary& library,
                              const AbTestConfig& cfg,
                              const CheckpointOptions& opts,
                              AbTestResult* result, std::string* error);

}  // namespace bba::exp
