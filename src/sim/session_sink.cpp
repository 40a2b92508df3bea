#include "sim/session_sink.hpp"

#include "util/assert.hpp"

namespace bba::sim {

RecordingSink::RecordingSink(SessionResult* out) : out_(out) {
  BBA_ASSERT(out_ != nullptr, "RecordingSink requires a target");
}

void RecordingSink::on_session_start(double chunk_duration_s) {
  out_->chunks.clear();
  out_->rebuffers.clear();
  out_->chunk_duration_s = chunk_duration_s;
  out_->join_s = 0.0;
  out_->played_s = 0.0;
  out_->wall_s = 0.0;
  out_->started = false;
  out_->abandoned = false;
}

void RecordingSink::on_chunk(const ChunkRecord& chunk, double /*played_s*/) {
  out_->chunks.push_back(chunk);
}

void RecordingSink::on_rebuffer(const RebufferEvent& event) {
  out_->rebuffers.push_back(event);
}

void RecordingSink::on_session_end(const SessionSummary& summary) {
  out_->chunk_duration_s = summary.chunk_duration_s;
  out_->join_s = summary.join_s;
  out_->played_s = summary.played_s;
  out_->wall_s = summary.wall_s;
  out_->started = summary.started;
  out_->abandoned = summary.abandoned;
}

StreamingMetricsSink::StreamingMetricsSink(double steady_after_s)
    : steady_after_s_(steady_after_s) {
  BBA_ASSERT(steady_after_s_ > 0.0, "steady_after_s must be > 0");
}

}  // namespace bba::sim
