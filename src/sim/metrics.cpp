#include "sim/metrics.hpp"

#include "sim/session_sink.hpp"

namespace bba::sim {

SessionMetrics compute_metrics(const SessionResult& result,
                               double steady_after_s) {
  // A replay through the streaming fold, which weights each chunk's
  // nominal rate by how much of its video interval [position, position + V)
  // was played, in download order.
  StreamingMetricsSink sink(steady_after_s);
  sink.on_session_start(result.chunk_duration_s);
  for (const ChunkRecord& c : result.chunks) sink.on_chunk(c, 0.0);
  for (const RebufferEvent& e : result.rebuffers) sink.on_rebuffer(e);
  SessionSummary summary;
  summary.chunk_duration_s = result.chunk_duration_s;
  summary.join_s = result.join_s;
  summary.played_s = result.played_s;
  summary.wall_s = result.wall_s;
  summary.started = result.started;
  summary.abandoned = result.abandoned;
  sink.on_session_end(summary);
  return sink.metrics();
}

}  // namespace bba::sim
