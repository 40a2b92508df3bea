// Where a simulated session's events go.
//
// simulate_session historically appended every chunk to a heap-allocated
// SessionResult::chunks vector that most callers immediately reduced to
// SessionMetrics and threw away. SessionSink decouples the player from its
// output: callers choose between full per-chunk recording (RecordingSink --
// figures, per-chunk CSV logs, `bba_session --repro`) and a streaming
// accumulator (StreamingMetricsSink) that keeps two doubles per chunk in a
// reused buffer and computes SessionMetrics at session end. The A/B
// harness uses the streaming sink; its result is bit-identical to
// compute_metrics() over the recorded chunks (enforced by
// tests/test_sim_sink.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/session_result.hpp"
#include "util/units.hpp"

namespace bba::sim {

/// Scalar end-of-session summary (the non-vector tail of SessionResult).
struct SessionSummary {
  double chunk_duration_s = 0.0;  ///< V
  double join_s = 0.0;            ///< wall time playback first started
  double played_s = 0.0;          ///< seconds of video actually played
  double wall_s = 0.0;            ///< wall-clock session length
  bool started = false;           ///< playback ever began
  bool abandoned = false;         ///< session aborted (dead link / wall cap)
};

/// Receives one session's events in simulation order. Implementations are
/// reusable: on_session_start resets all per-session state.
class SessionSink {
 public:
  virtual ~SessionSink() = default;

  /// Called once before any other event. `chunk_duration_s` is V.
  virtual void on_session_start(double chunk_duration_s) = 0;

  /// One downloaded chunk, in download order. `played_s` is the content
  /// seconds already played when the chunk landed (monotone across calls).
  virtual void on_chunk(const ChunkRecord& chunk, double played_s) = 0;

  /// One playback stall, emitted when the stall resolves (or at session
  /// end / viewer give-up while still stalled).
  virtual void on_rebuffer(const RebufferEvent& event) = 0;

  /// Called exactly once, after every chunk and rebuffer.
  virtual void on_session_end(const SessionSummary& summary) = 0;
};

/// Forwards every event to two sinks, first then second -- how the A/B
/// harness attaches an observability trace sink next to its metrics sink
/// without either knowing about the other. Cheap to construct on the
/// stack per session (two pointers, no allocation); both sinks see the
/// exact event sequence they would see alone. Call sites name neither
/// type; they are deduced from the two sinks. A `final` sink type (as in
/// TeeSink<StreamingMetricsSink, obs::SessionTraceSink>) makes that half
/// a direct, inlinable call inside the session player template.
template <class First, class Second>
class TeeSink final : public SessionSink {
 public:
  TeeSink(First& first, Second& second) : first_(&first), second_(&second) {}

  void on_session_start(double chunk_duration_s) override {
    first_->on_session_start(chunk_duration_s);
    second_->on_session_start(chunk_duration_s);
  }
  void on_chunk(const ChunkRecord& chunk, double played_s) override {
    first_->on_chunk(chunk, played_s);
    second_->on_chunk(chunk, played_s);
  }
  void on_rebuffer(const RebufferEvent& event) override {
    first_->on_rebuffer(event);
    second_->on_rebuffer(event);
  }
  void on_session_end(const SessionSummary& summary) override {
    first_->on_session_end(summary);
    second_->on_session_end(summary);
  }

 private:
  First* first_;
  Second* second_;
};

/// Records everything into a SessionResult -- the pre-sink behaviour. The
/// target's vectors are cleared (capacity kept) on session start, so a
/// reused RecordingSink+SessionResult pair stops allocating once the
/// vectors have grown to the workload.
class RecordingSink final : public SessionSink {
 public:
  explicit RecordingSink(SessionResult* out);

  void on_session_start(double chunk_duration_s) override;
  void on_chunk(const ChunkRecord& chunk, double played_s) override;
  void on_rebuffer(const RebufferEvent& event) override;
  void on_session_end(const SessionSummary& summary) override;

 private:
  SessionResult* out_;
};

/// Computes SessionMetrics in one pass over the session's events;
/// compute_metrics(recorded_result) is this fold replayed over the
/// recording.
///
/// Each chunk is weighted by how much of its video interval
/// [position, position + V) was played, which depends on the final
/// played_s. So on_chunk only appends the chunk's {position, rate} to a
/// buffer, and on_session_end folds every chunk once, in download order,
/// with the final played_s. The buffer keeps its capacity across sessions:
/// once it has grown to the longest session, a reused sink does not
/// allocate.
class StreamingMetricsSink final : public SessionSink {
 public:
  explicit StreamingMetricsSink(double steady_after_s = 120.0);

  // Defined inline: the session player template (sim/simulate.hpp) names
  // this final type and takes each chunk without a call boundary.
  void on_session_start(double chunk_duration_s) override;
  void on_chunk(const ChunkRecord& chunk, double played_s) override;
  void on_rebuffer(const RebufferEvent& event) override;
  void on_session_end(const SessionSummary& summary) override;

  /// Valid after on_session_end, until the next on_session_start.
  const SessionMetrics& metrics() const { return metrics_; }

 private:
  struct PlayedChunk {
    double position_s = 0.0;
    double rate_bps = 0.0;
  };

  double steady_after_s_;

  // This session's chunks, in download order.
  std::vector<PlayedChunk> chunks_;

  // Per-chunk accumulators, summed in download order.
  long long switch_count_ = 0;
  std::size_t prev_rate_index_ = 0;
  double buffer_sum_ = 0.0;
  long long rebuffer_count_ = 0;
  double rebuffer_s_ = 0.0;
  long long fault_stall_count_ = 0;

  SessionMetrics metrics_;
};

inline void StreamingMetricsSink::on_session_start(
    double /*chunk_duration_s*/) {
  chunks_.clear();
  switch_count_ = 0;
  prev_rate_index_ = 0;
  buffer_sum_ = 0.0;
  rebuffer_count_ = 0;
  rebuffer_s_ = 0.0;
  fault_stall_count_ = 0;
  metrics_ = SessionMetrics{};
}

inline void StreamingMetricsSink::on_chunk(const ChunkRecord& chunk,
                                           double /*played_s*/) {
  if (!chunks_.empty() && chunk.rate_index != prev_rate_index_) {
    ++switch_count_;
  }
  prev_rate_index_ = chunk.rate_index;
  buffer_sum_ += chunk.buffer_after_s;
  chunks_.push_back({chunk.position_s, chunk.rate_bps});
}

inline void StreamingMetricsSink::on_rebuffer(const RebufferEvent& event) {
  ++rebuffer_count_;
  rebuffer_s_ += event.duration_s;
  if (event.during_fault) ++fault_stall_count_;
}

inline void StreamingMetricsSink::on_session_end(
    const SessionSummary& summary) {
  SessionMetrics& m = metrics_;
  m.play_s = summary.played_s;
  m.join_s = summary.join_s;
  m.abandoned = summary.abandoned;
  m.rebuffer_count = rebuffer_count_;
  m.rebuffer_s = rebuffer_s_;
  m.fault_stall_count = fault_stall_count_;

  const double play_hours = util::to_hours(summary.played_s);
  if (play_hours > 0.0) {
    m.rebuffers_per_hour = static_cast<double>(m.rebuffer_count) / play_hours;
  }

  // The weight of a chunk is the played part of its interval [lo, lo + V),
  // split at the startup/steady boundary.
  const double V = summary.chunk_duration_s;
  const double steady_from_s = std::min(steady_after_s_, summary.played_s);
  double total_weight = 0.0, total_rate = 0.0;
  double start_weight = 0.0, start_rate = 0.0;
  double steady_weight = 0.0, steady_rate = 0.0;
  for (const PlayedChunk& c : chunks_) {
    const double lo = c.position_s;
    const double played_portion = std::clamp(summary.played_s - lo, 0.0, V);
    if (played_portion <= 0.0) continue;
    const double start_overlap =
        std::clamp(steady_from_s - lo, 0.0, played_portion);
    total_weight += played_portion;
    total_rate += c.rate_bps * played_portion;
    start_weight += start_overlap;
    start_rate += c.rate_bps * start_overlap;
    const double steady_overlap = played_portion - start_overlap;
    steady_weight += steady_overlap;
    steady_rate += c.rate_bps * steady_overlap;
  }

  if (!chunks_.empty()) {
    m.avg_buffer_s = buffer_sum_ / static_cast<double>(chunks_.size());
  }
  if (total_weight > 0.0) m.avg_rate_bps = total_rate / total_weight;
  if (start_weight > 0.0) m.startup_rate_bps = start_rate / start_weight;
  if (steady_weight > 0.0) {
    m.steady_rate_bps = steady_rate / steady_weight;
    m.has_steady = true;
    m.steady_play_s = steady_weight;
  }

  m.switch_count = switch_count_;
  if (play_hours > 0.0) {
    m.switches_per_hour = static_cast<double>(m.switch_count) / play_hours;
  }
}

}  // namespace bba::sim
