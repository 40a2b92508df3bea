#include "sim/player.hpp"

#include <algorithm>
#include <limits>

#include "net/trace_stream.hpp"
#include "sim/simulate.hpp"
#include "util/assert.hpp"

namespace bba::sim {

void simulate_session(const media::Video& video,
                      const net::CapacityTrace& trace,
                      abr::RateAdaptation& abr, const PlayerConfig& config,
                      SessionSink& sink) {
  // One stream per thread, reused: its buffers grow to the longest trace
  // the thread plays and are never freed, so steady-state sessions copy
  // the trace without allocating.
  thread_local net::TraceStream stream;
  stream.assign(trace);
  simulate(video, net::StreamCursor(stream), abr, config, sink);
}

SessionResult simulate_session(const media::Video& video,
                               const net::CapacityTrace& trace,
                               abr::RateAdaptation& abr,
                               const PlayerConfig& config) {
  SessionResult res;
  // Reserve the exact worst case up front: one record per remaining chunk,
  // and at most one stall beginning per chunk in flight. Turns the ~9
  // doubling reallocations per vector the recorded bench mode used to pay
  // into one allocation each.
  const std::size_t chunk_bound =
      video.num_chunks() > config.start_chunk
          ? video.num_chunks() - config.start_chunk
          : 0;
  res.chunks.reserve(chunk_bound);
  res.rebuffers.reserve(chunk_bound + 1);
  RecordingSink sink(&res);
  simulate_session(video, trace, abr, config, sink);
  return res;
}

SessionResult simulate_session_with_seeks(const media::Video& video,
                                          const net::CapacityTrace& trace,
                                          abr::RateAdaptation& abr,
                                          const std::vector<Seek>& seeks,
                                          const PlayerConfig& config) {
  BBA_ASSERT(std::is_sorted(seeks.begin(), seeks.end(),
                            [](const Seek& a, const Seek& b) {
                              return a.after_watched_s < b.after_watched_s;
                            }),
             "seeks must be ordered by after_watched_s");
  const double V = video.chunk_duration_s();
  SessionResult total;
  total.chunk_duration_s = V;

  double watched = 0.0;
  double wall = config.start_wall_s;
  std::size_t segment_start = config.start_chunk;
  bool first_segment = true;

  for (std::size_t i = 0; i <= seeks.size(); ++i) {
    const double segment_end = i < seeks.size()
                                   ? std::min(seeks[i].after_watched_s,
                                              config.watch_duration_s)
                                   : config.watch_duration_s;
    const double segment_watch = segment_end - watched;
    if (segment_watch > 0.0) {
      PlayerConfig sub = config;
      sub.start_chunk = segment_start;
      sub.start_wall_s = wall;
      sub.position_offset_s = watched;
      sub.watch_duration_s = segment_watch;
      SessionResult part = simulate_session(video, trace, abr, sub);
      // Chunks downloaded beyond the content actually played in this
      // segment (the buffer is discarded at the seek) must not count
      // toward the delivered-rate metrics: mark them as never played.
      const double segment_played_end = watched + part.played_s;
      for (auto& c : part.chunks) {
        if (c.position_s >= segment_played_end) {
          c.position_s = std::numeric_limits<double>::infinity();
        }
      }
      total.chunks.insert(total.chunks.end(), part.chunks.begin(),
                          part.chunks.end());
      total.rebuffers.insert(total.rebuffers.end(), part.rebuffers.begin(),
                             part.rebuffers.end());
      if (first_segment) {
        total.join_s = part.join_s;
        total.started = part.started;
        first_segment = false;
      }
      watched += part.played_s;
      wall = part.wall_s;
      total.abandoned = part.abandoned;
      if (part.abandoned) break;
      // The segment ran out of title before its watch ended (the player
      // caps the watch at the same product): the viewing is over, and the
      // viewer never reaches a later seek.
      const double title_left_s =
          V * static_cast<double>(video.num_chunks() - segment_start);
      if (title_left_s < segment_watch) break;
    }
    if (i < seeks.size()) {
      const auto target = static_cast<std::size_t>(
          std::max(0.0, seeks[i].to_position_s) / V);
      segment_start = std::min(target, video.num_chunks() - 1);
    }
    if (watched >= config.watch_duration_s) break;
  }
  total.played_s = watched;
  total.wall_s = wall;
  return total;
}

}  // namespace bba::sim
