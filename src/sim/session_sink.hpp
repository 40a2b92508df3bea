// Where a simulated session's events go.
//
// simulate_session historically appended every chunk to a heap-allocated
// SessionResult::chunks vector that most callers immediately reduced to
// SessionMetrics and threw away. SessionSink decouples the player from its
// output: callers choose between full per-chunk recording (RecordingSink --
// figures, per-chunk CSV logs, `bba_session --repro`) and a streaming
// accumulator (StreamingMetricsSink) that computes SessionMetrics on the
// fly with a small bounded ring and no chunk vector at all. The A/B
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
/// exact event sequence they would see alone.
class TeeSink final : public SessionSink {
 public:
  TeeSink(SessionSink& first, SessionSink& second)
      : first_(&first), second_(&second) {}

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
  SessionSink* first_;
  SessionSink* second_;
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

/// Computes SessionMetrics on the fly; compute_metrics(recorded_result)
/// is this fold replayed over the recording.
///
/// Each chunk is weighted by how much of its video interval was played,
/// which depends on the final played_s -- but a chunk's contribution
/// becomes exact as soon as playback passes its interval (the clamps
/// saturate). Downloaded-but-unplayed content is bounded by
/// the buffer capacity, so a small FIFO of pending chunks suffices:
/// chunks are folded into the running sums, in download order, the moment
/// playback passes them, and the handful still pending at session end are
/// folded during on_session_end with the general formulas (which the
/// early fold equals exactly once the clamps saturate). The ring grows to the deepest buffer ever seen and is
/// then reused forever: zero steady-state allocation.
class StreamingMetricsSink final : public SessionSink {
 public:
  explicit StreamingMetricsSink(double steady_after_s = 120.0);

  // Defined inline: the session player template (sim/simulate.hpp) names
  // this final type and folds every chunk without a call boundary.
  void on_session_start(double chunk_duration_s) override;
  void on_chunk(const ChunkRecord& chunk, double played_s) override;
  void on_rebuffer(const RebufferEvent& event) override;
  void on_session_end(const SessionSummary& summary) override;

  /// Valid after on_session_end, until the next on_session_start.
  const SessionMetrics& metrics() const { return metrics_; }

 private:
  struct PendingChunk {
    double position_s = 0.0;
    double rate_bps = 0.0;
  };

  void fold(double rate_bps, double played_portion, double start_overlap) {
    // Every chunk passes through here exactly once, in download order.
    total_weight_ += played_portion;
    total_rate_ += rate_bps * played_portion;
    start_weight_ += start_overlap;
    start_rate_ += rate_bps * start_overlap;
    const double steady_overlap = played_portion - start_overlap;
    steady_weight_ += steady_overlap;
    steady_rate_ += rate_bps * steady_overlap;
  }
  /// Grows the ring (startup only) and re-linearizes the FIFO into it.
  void grow_ring();

  double steady_after_s_;
  double chunk_duration_s_ = 0.0;

  // Pending ring: FIFO over ring_[(head_ + i) & mask_]; the size is a power
  // of two (or zero before the first chunk).
  std::vector<PendingChunk> ring_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;

  // Running accumulators.
  double total_weight_ = 0.0, total_rate_ = 0.0;
  double start_weight_ = 0.0, start_rate_ = 0.0;
  double steady_weight_ = 0.0, steady_rate_ = 0.0;
  long long switch_count_ = 0;
  std::size_t prev_rate_index_ = 0;
  bool has_prev_rate_ = false;
  long long rebuffer_count_ = 0;
  double rebuffer_s_ = 0.0;
  long long fault_stall_count_ = 0;
  double buffer_sum_ = 0.0;
  long long chunk_count_ = 0;

  SessionMetrics metrics_;
};

inline void StreamingMetricsSink::grow_ring() {
  std::vector<PendingChunk> grown(std::max<std::size_t>(64, ring_.size() * 2));
  for (std::size_t i = 0; i < count_; ++i) {
    grown[i] = ring_[(head_ + i) & mask_];
  }
  ring_.swap(grown);
  mask_ = ring_.size() - 1;
  head_ = 0;
}

inline void StreamingMetricsSink::on_session_start(double chunk_duration_s) {
  chunk_duration_s_ = chunk_duration_s;
  head_ = 0;
  count_ = 0;
  total_weight_ = total_rate_ = 0.0;
  start_weight_ = start_rate_ = 0.0;
  steady_weight_ = steady_rate_ = 0.0;
  switch_count_ = 0;
  prev_rate_index_ = 0;
  has_prev_rate_ = false;
  rebuffer_count_ = 0;
  rebuffer_s_ = 0.0;
  fault_stall_count_ = 0;
  buffer_sum_ = 0.0;
  chunk_count_ = 0;
  metrics_ = SessionMetrics{};
}

inline void StreamingMetricsSink::on_chunk(const ChunkRecord& chunk,
                                           double played_s) {
  if (has_prev_rate_ && chunk.rate_index != prev_rate_index_) {
    ++switch_count_;
  }
  prev_rate_index_ = chunk.rate_index;
  has_prev_rate_ = true;

  // Independent accumulator summed in on_chunk (= download) order.
  buffer_sum_ += chunk.buffer_after_s;
  ++chunk_count_;

  if (count_ == ring_.size()) grow_ring();
  ring_[(head_ + count_) & mask_] = {chunk.position_s, chunk.rate_bps};
  ++count_;

  // Fold every pending chunk whose video interval playback has fully
  // passed: its end-of-session clamps are saturated, so its contribution
  // no longer depends on the final played_s.
  //   played_portion = clamp(played_final - lo, 0, V) == V
  //     (played_final >= played_s and played_s - lo >= V already), and
  //   start_overlap = clamp(min(steady_after, played_final) - lo, 0, V)
  //                 == clamp(steady_after - lo, 0, V)
  //     (if played_final < steady_after, both saturate at V).
  const double V = chunk_duration_s_;
  while (count_ > 0) {
    const PendingChunk front = ring_[head_];
    if (!(played_s - front.position_s >= V)) break;
    const double start_overlap =
        std::clamp(steady_after_s_ - front.position_s, 0.0, V);
    fold(front.rate_bps, V, start_overlap);
    head_ = (head_ + 1) & mask_;
    --count_;
  }
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

  // Chunks still pending fold with the final played_s: the weight is the
  // played part of the chunk's interval [lo, lo + V), split at the
  // startup/steady boundary.
  const double V = summary.chunk_duration_s;
  for (std::size_t i = 0; i < count_; ++i) {
    const PendingChunk& c = ring_[(head_ + i) & mask_];
    const double lo = c.position_s;
    const double played_portion =
        std::clamp(summary.played_s - lo, 0.0, V);
    if (played_portion <= 0.0) continue;
    const double start_overlap =
        std::clamp(std::min(steady_after_s_, summary.played_s) - lo, 0.0,
                   played_portion);
    fold(c.rate_bps, played_portion, start_overlap);
  }
  head_ = 0;
  count_ = 0;

  if (chunk_count_ > 0) {
    m.avg_buffer_s = buffer_sum_ / static_cast<double>(chunk_count_);
  }
  if (total_weight_ > 0.0) m.avg_rate_bps = total_rate_ / total_weight_;
  if (start_weight_ > 0.0) m.startup_rate_bps = start_rate_ / start_weight_;
  if (steady_weight_ > 0.0) {
    m.steady_rate_bps = steady_rate_ / steady_weight_;
    m.has_steady = true;
    m.steady_play_s = steady_weight_;
  }

  m.switch_count = switch_count_;
  if (play_hours > 0.0) {
    m.switches_per_hour = static_cast<double>(m.switch_count) / play_hours;
  }
}

}  // namespace bba::sim
