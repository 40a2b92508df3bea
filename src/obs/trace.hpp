// Deterministic chunk-level session tracing to JSONL.
//
// The paper's per-session figures (4, 11, 16, 21) are chunk timelines; the
// A/B harness historically threw that information away. SessionTraceSink is
// a sim::SessionSink (tee it next to the Recording/StreamingMetrics sinks)
// that buffers one session's chunk / stall / switch / OFF-period events and
// serializes them as JSON lines when the session qualifies:
//
//  * deterministic sampling -- 1-in-N sessions, decided purely from the
//    session's grid coordinates via util::Rng::substream with the reserved
//    exp::StreamClass::kTraceSample, so the traced session set (and, with
//    the harness's canonical-order writing, the trace file bytes) is
//    identical at every thread count; or
//  * the anomaly trigger -- any session whose total stall time crosses
//    TraceConfig::anomaly_rebuffer_s, or that is abandoned / gives up,
//    captures its full timeline regardless of sampling. That is the
//    paper's Fig. 4 "aggressive case study" reproduced on demand: feed the
//    line back through `bba_session --repro-trace` to replay it bit-exact.
//
// Tracing never perturbs simulation values: the sink only observes events,
// so A/B results are bit-identical with tracing on, off, or at any
// sampling rate (tests/test_obs_trace.cpp enforces this).
//
// TraceCollector/SessionTraceSink are the JSONL pair and double as the
// base classes of the columnar binary pair in obs/btrace.hpp
// (BinaryTraceCollector/BinaryTraceSink): the sampling decision, anomaly
// trigger, event buffering, tallies, and the single-writer contract are
// format-independent, so only `finish` (serialize one session) and
// `write` (append to the container) differ. Harness code holds the base
// types and never branches on the format.
//
// File schema: docs/observability.md. A session's header line ("ev":
// "session", carrying coordinates, group, and summary) precedes its event
// lines; event lines belong to the most recent header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_inject.hpp"
#include "sim/session_sink.hpp"

namespace bba::obs {

class SessionTraceSink;

/// The collector state a checkpoint (exp/checkpoint.hpp) carries: the
/// write tallies plus the on-disk size at the checkpoint instant. Resuming
/// truncates the file back to `file_size` -- everything the interrupted
/// process wrote past its last checkpoint is discarded and re-simulated --
/// so the resumed file is byte-identical to an uninterrupted run's.
/// `format` / `sample` / `anomaly_rebuffer_s` pin the run configuration:
/// resuming with different trace settings would change the emitted session
/// set, so resume_from() rejects a mismatch.
struct TraceResumeState {
  std::string format;  ///< format_name() of the writing collector
  std::uint64_t sample = 0;
  double anomaly_rebuffer_s = 0.0;
  std::uint64_t sessions_written = 0;
  std::uint64_t anomalies_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t file_size = 0;  ///< flushed on-disk bytes at the checkpoint
};

/// Tracing parameters.
struct TraceConfig {
  /// Output path; empty discards serialized sessions (benchmarks measure
  /// serialization without I/O that way).
  std::string path;

  /// Sample 1-in-N sessions deterministically (0 = sampling off, only
  /// anomalies are captured; 1 = every session).
  std::uint64_t sample = 64;

  /// Anomaly trigger: capture any session whose total stall time reaches
  /// this many seconds, and every abandoned / gave-up session.
  double anomaly_rebuffer_s = 30.0;

  /// Reopen `path` for appending instead of truncating it: a checkpoint
  /// resume continues an interrupted run's trace file. The collector is
  /// unusable until resume_from() restored the tallies and truncated the
  /// file back to the checkpointed offset.
  bool resume = false;
};

/// Owns the trace output file and the sampling decision. The harness calls
/// `sampled()` from any thread (pure function of the coordinates) and
/// `write()` from exactly one thread, in canonical task order, so the file
/// is deterministic. This base class writes JSONL; BinaryTraceCollector
/// (obs/btrace.hpp) overrides the format hooks for the columnar container.
class TraceCollector {
 public:
  explicit TraceCollector(TraceConfig cfg);
  virtual ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  const TraceConfig& config() const { return cfg_; }

  /// True when the file opened (or no file was requested) and no write or
  /// flush has failed since. A full disk flips this to false; the byte
  /// tallies keep counting what *should* have been written, and
  /// `write_errors()` counts the failed calls.
  bool ok() const { return ok_; }

  /// The stats_json / CLI format tag: "jsonl" here, "btrace" for the
  /// binary collector.
  virtual const char* format_name() const { return "jsonl"; }

  /// A session sink producing this collector's serialization format. The
  /// harness creates one per worker slot and feeds its `finish` output
  /// back through `write`.
  virtual std::unique_ptr<SessionTraceSink> make_sink() const;

  /// Deterministic 1-in-N decision for session (seed, day, window,
  /// session): a pure function of the coordinates, independent of thread
  /// count, other sessions, or call order.
  bool sampled(std::uint64_t seed, std::uint64_t day, std::uint64_t window,
               std::uint64_t session) const;

  /// Appends pre-serialized bytes (single-writer; the harness calls this
  /// from its sequential fold). Empty config path counts but discards.
  /// Short writes set ok() false, bump write_errors, and warn on stderr
  /// once -- a full disk must not masquerade as a healthy trace.
  virtual void write(const std::string& bytes);

  virtual void flush();

  /// Ends the container: formats with a footer (btrace) write it here. A
  /// no-op for JSONL; destructors call it too, so explicit calls are only
  /// needed to read a complete file while the collector is still alive.
  virtual void finalize() {}

  /// Snapshot for a checkpoint: flushes, then captures the tallies and the
  /// on-disk size. Call from the harness's checkpoint boundary (between
  /// blocks, never mid-write).
  TraceResumeState resume_state();

  /// Restores a checkpointed state into a collector constructed with
  /// TraceConfig::resume: validates the format/sample/anomaly settings,
  /// truncates the file to st.file_size (discarding post-checkpoint
  /// bytes), and adopts the tallies. Returns false with *error set on a
  /// configuration mismatch or when the file is shorter than the
  /// checkpoint recorded (the trace was lost or replaced). The btrace
  /// override additionally rebuilds its footer index by rescanning the
  /// truncated file's blocks.
  virtual bool resume_from(const TraceResumeState& st, std::string* error);

  // Tallies for the metrics snapshot.
  std::uint64_t sessions_written() const { return sessions_written_; }
  std::uint64_t anomalies_written() const { return anomalies_written_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t write_errors() const { return write_errors_; }
  void note_session(bool anomalous);

  /// `"trace":{...}` JSON fragment for MetricsSnapshot::to_json.
  std::string stats_json() const;

 protected:
  /// Records one failed stdio call (short fwrite / failed fflush).
  void note_io_error(const char* op);

  std::FILE* file() { return file_; }

 private:
  TraceConfig cfg_;
  std::FILE* file_ = nullptr;
  bool ok_ = false;
  bool io_warned_ = false;
  std::uint64_t sessions_written_ = 0;
  std::uint64_t anomalies_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t write_errors_ = 0;
};

/// Buffers one session's events and serializes them on demand. Reusable:
/// begin() resets all per-session state, and the event buffers only grow
/// to the largest traced session (no steady-state allocation once warm).
/// The base class serializes JSONL; BinaryTraceSink (obs/btrace.hpp)
/// overrides finish() to emit a columnar binary block from the same
/// buffered events.
class SessionTraceSink : public sim::SessionSink {
 public:
  SessionTraceSink() = default;
  ~SessionTraceSink() override = default;

  /// Arms the sink for the next session. `sampled` is the collector's
  /// deterministic decision; buffering is skipped entirely when the
  /// session is unsampled and anomaly capture is off.
  void begin(const TraceConfig& cfg, std::uint64_t seed, std::uint64_t day,
             std::uint64_t window, std::uint64_t session,
             std::string_view group, bool sampled);

  /// Attaches the session's injected faults (borrowed; must stay alive
  /// through finish()). Call after begin() -- begin() detaches. When
  /// attached, the header carries the fault count and trace cycle, each
  /// fault serializes as a `fault` event line right after the header, and
  /// stall lines gain a `"fault"` attribution flag. Never attached (the
  /// faults-disabled path), the serialized bytes are identical to a build
  /// without fault injection.
  void set_faults(const std::vector<net::InjectedFault>* faults,
                  double trace_cycle_s, bool trace_loops);

  /// Marks this session as health-monitor evidence: `marker_line` (a
  /// '\n'-terminated {"ev":"alert",...} line) is emitted right after the
  /// session header, and the session qualifies for emission regardless of
  /// sampling. Call after begin() -- begin() clears it. The btrace sink
  /// carries the marker in its binary block and the reader re-emits it, so
  /// both formats round-trip identically.
  void set_alert(std::string_view marker_line);

  // sim::SessionSink
  void on_session_start(double chunk_duration_s) override;
  void on_chunk(const sim::ChunkRecord& chunk, double played_s) override;
  void on_rebuffer(const sim::RebufferEvent& event) override;
  void on_session_end(const sim::SessionSummary& summary) override;

  /// After on_session_end: true if the session qualified (sampled or
  /// anomalous). Valid until the next begin().
  bool should_emit() const { return emit_; }

  /// True if the anomaly trigger fired for the last session.
  bool anomalous() const { return anomalous_; }

  /// Serializes the buffered session (header + chronological event lines
  /// in this sink's format) and appends to `out` if it qualified. Returns
  /// should_emit().
  virtual bool finish(std::string* out) const;

 protected:
  const TraceConfig* cfg_ = nullptr;
  std::uint64_t seed_ = 0, day_ = 0, window_ = 0, session_ = 0;
  std::string group_;
  bool sampled_ = false;
  bool emit_ = false;
  bool anomalous_ = false;

  std::vector<sim::ChunkRecord> chunks_;
  std::vector<double> played_at_chunk_;
  std::vector<sim::RebufferEvent> rebuffers_;
  sim::SessionSummary summary_;
  double rebuffer_total_s_ = 0.0;
  bool ended_ = false;

  const std::vector<net::InjectedFault>* faults_ = nullptr;
  double fault_cycle_s_ = 0.0;
  bool fault_loops_ = false;

  std::string alert_marker_;  ///< empty = not an alert capture
};

}  // namespace bba::obs
