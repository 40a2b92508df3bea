#include "sim/player.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "net/trace_cursor.hpp"
#include "sim/simulate.hpp"
#include "util/assert.hpp"

namespace bba::sim {

namespace {

/// PlayerConfig::use_trace_cursor off: every query is the trace's own
/// binary search, as before the cursor existed (kept for before/after
/// benchmarks). Nothing is tallied.
struct SearchSource {
  const net::CapacityTrace& trace;

  double finish_time_s(double start_s, double bits) const {
    return trace.finish_time_s(start_s, bits);
  }
  double rate_at_bps(double t_s) const { return trace.rate_at_bps(t_s); }
  std::uint32_t queries() const { return 0; }
  std::uint32_t rewinds() const { return 0; }
  double cycle_duration_s() const { return trace.cycle_duration_s(); }
  bool loops() const { return trace.loops(); }
};

}  // namespace

void simulate_session(const media::Video& video,
                      const net::CapacityTrace& trace,
                      abr::RateAdaptation& abr, const PlayerConfig& config,
                      SessionSink& sink) {
  if (config.use_trace_cursor) {
    simulate(video, net::TraceCursor(trace), abr, config, sink);
  } else {
    simulate(video, SearchSource{trace}, abr, config, sink);
  }
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
    BBA_ASSERT(i == 0 || seeks[i - 1].after_watched_s <= segment_end ||
                   i == seeks.size(),
               "seeks must be ordered by after_watched_s");
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
