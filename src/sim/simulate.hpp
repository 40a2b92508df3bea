// The session player, one template for every ABR, trace source and sink.
//
// simulate<Policy, Source, Sink> is the whole client model of
// sim/player.hpp in one loop whose hot state lives in locals. What varies
// between callers is static:
//
//  - Policy decides the rate: any type with reset() and
//    choose_rate(const abr::Observation&). Naming a `final` ABR class whose
//    decision is defined in its header (ControlAbr, RMinAlways, Bba0,
//    BolaAbr) or a table-driven policy such as core::BbaTable inlines the
//    decision, with its estimator, ladder search and rate map, into the
//    chunk loop; Policy = abr::RateAdaptation keeps the virtual call for
//    ABRs whose dynamic type the caller cannot name. A policy that also
//    has on_session_end() gets it once, after the last decision.
//  - Source integrates the capacity trace: net::StreamCursor over a
//    TraceStream, lazily generated or assigned a materialized trace (the
//    A/B harness, every session; the public simulate_session, any trace).
//    Tests and benches also pass net::SearchSource, CapacityTrace's own
//    binary search, as the independent reference. It provides
//    finish_time_s, rate_at_bps (TCP model), queries/rewinds (obs
//    tallies), and cycle_duration_s/loops (fault attribution).
//  - Sink receives the events: the final StreamingMetricsSink takes each
//    chunk inline (one append) and folds the session at its end; the
//    harness's tracing tee, TeeSink<StreamingMetricsSink,
//    obs::SessionTraceSink>, runs its metrics half inline too and calls
//    the trace sink; SessionSink keeps the virtual interface (recording,
//    the public simulate_session).
//
// TCP slow start, viewer give-up, the wall-clock cap, fault attribution and
// mid-title starts (seek segments) are ordinary branches of the same loop,
// predictable because their inputs are fixed for the session. Every
// instantiation evaluates the identical floating-point expression sequence,
// so results are bit-identical whichever policy, source or sink a caller
// picks (tests/test_golden.cpp, tests/test_player_properties.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "abr/abr.hpp"
#include "media/video.hpp"
#include "net/fault_inject.hpp"
#include "net/tcp_model.hpp"
#include "obs/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/assert.hpp"

namespace bba::sim {

template <class Policy, class Source, class Sink>
[[gnu::flatten]] void simulate(const media::Video& video, Source src,
                               Policy& caller_policy,
                               const PlayerConfig& config, Sink& sink) {
  BBA_ASSERT(config.buffer_capacity_s >= video.chunk_duration_s(),
             "buffer must hold at least one chunk");
  BBA_ASSERT(config.play_threshold_s > 0.0 && config.resume_threshold_s > 0.0,
             "playback thresholds must be > 0");
  // Hot state stays in locals: the source is taken by value, a value-type
  // policy (core::BbaTable) runs on a local copy written back at the end,
  // and the config fields the loop reads are copied out, so stores into
  // the sink cannot force them to be reloaded every chunk.
  constexpr bool kLocalPolicy = std::is_trivially_copyable_v<Policy>;
  std::conditional_t<kLocalPolicy, Policy, Policy&> policy = caller_policy;
  policy.reset();

  const auto& chunks = video.chunks();
  const auto& ladder = video.ladder();
  const double V = chunks.chunk_duration_s();
  const std::size_t n = chunks.num_chunks();
  BBA_ASSERT(config.start_chunk < n, "start chunk beyond the video");
  const double remaining_s =
      V * static_cast<double>(n - config.start_chunk);
  const double watch_limit = std::min(config.watch_duration_s, remaining_s);
  const double cap = config.buffer_capacity_s;
  const double max_wall_s = config.max_wall_s;
  const double give_up_stall_s = config.give_up_stall_s;
  const double play_threshold_s = config.play_threshold_s;
  const double resume_threshold_s = config.resume_threshold_s;
  const double position_offset_s = config.position_offset_s;
  const std::size_t start_chunk = config.start_chunk;
  const std::vector<net::InjectedFault>* const faults = config.faults;

  sink.on_session_start(V);
  SessionSummary sum;
  sum.chunk_duration_s = V;

  // Per-chunk obs counters batch in locals (plain adds) and flush once at
  // session end -- per-chunk thread-local touches are too expensive here.
  std::uint32_t obs_chunks = 0;
  std::uint32_t obs_offs = 0;
  std::uint32_t obs_switches = 0;

  double t = config.start_wall_s;  // wall clock
  double buffer = 0.0;             // seconds of video buffered
  double played = 0.0;             // seconds of video played
  bool playing = false;
  bool gave_up = false;
  double stall_start = -1.0;  // >= 0 while stalled after playback started
  std::size_t stall_chunk = 0;
  double last_tp = 0.0;
  double last_dl = 0.0;
  double prev_finish_s = -1.0;  // end of the previous download (TCP idle)
  std::size_t prev_rate = 0;
  const std::optional<net::TcpDownloadModel> tcp =
      config.tcp ? std::optional<net::TcpDownloadModel>(*config.tcp)
                 : std::nullopt;

  // Attribution: did the stall interval overlap an injected fault window?
  // Only evaluated when faults are attached, so fault-free sessions pay
  // nothing.
  auto stall_during_fault = [&](double t0, double t1) {
    return faults != nullptr &&
           net::fault_overlaps(*faults, src.cycle_duration_s(),
                               src.loops(), t0, t1);
  };

  auto close_stall = [&](double resume_t) {
    if (stall_start >= 0.0) {
      obs::count(obs::Counter::kRebuffers);
      obs::observe(obs::Hist::kStallSeconds, resume_t - stall_start);
      sink.on_rebuffer({stall_start, resume_t - stall_start, stall_chunk,
                        stall_during_fault(stall_start, resume_t)});
      stall_start = -1.0;
    }
  };

  for (std::size_t k = start_chunk; k < n; ++k) {
    if (played >= watch_limit) break;
    if (t > max_wall_s) {
      sum.abandoned = true;
      break;
    }

    // ON-OFF: if the buffer cannot accept another chunk, idle until it can.
    // The buffer can only be full while playing.
    double off_wait = 0.0;
    if (buffer + V > cap) {
      off_wait = buffer + V - cap;
      const double need = watch_limit - played;
      if (need <= off_wait) {
        t += need;
        buffer -= need;
        played = watch_limit;
        break;
      }
      t += off_wait;
      buffer -= off_wait;
      played += off_wait;
    }

    abr::Observation obs;
    obs.chunk_index = k;
    obs.buffer_s = buffer;
    obs.buffer_max_s = cap;
    obs.now_s = t;
    obs.prev_rate_index = prev_rate;
    obs.last_throughput_bps = last_tp;
    obs.last_download_s = last_dl;
    obs.delta_buffer_s = last_dl > 0.0 ? V - last_dl : 0.0;
    obs.playing = playing;
    obs.video = &video;

    const std::size_t r = policy.choose_rate(obs);
    BBA_ASSERT(r < ladder.size(), "ABR returned an out-of-range rate index");

    const double size = chunks.size_bits(r, k);
    const double req_t = t;
    double finish;
    if (tcp) {
      const double idle_s = prev_finish_s < 0.0
                                ? std::numeric_limits<double>::infinity()
                                : req_t - prev_finish_s;
      finish = tcp->finish_time_s(src, t, size, idle_s);
    } else {
      finish = src.finish_time_s(t, size);
    }
    if (!std::isfinite(finish)) {
      // The link is dead for the rest of time: play out and abandon.
      if (playing) {
        const double drain = std::min(buffer, watch_limit - played);
        played += drain;
        t += drain;
        buffer -= drain;
      }
      sum.abandoned = true;
      break;
    }
    const double dl = finish - req_t;

    if (playing) {
      const double need = watch_limit - played;
      if (need <= std::min(dl, buffer)) {
        // The user finishes their session while this chunk is in flight.
        t += need;
        buffer -= need;
        played = watch_limit;
        break;
      }
      if (dl > buffer) {
        // Buffer runs dry mid-download: stall until (at least) the chunk
        // lands. The buffer is not updated during rebuffering (Fig. 4 note).
        stall_start = t + buffer;
        stall_chunk = k;
        played += buffer;
        buffer = 0.0;
        playing = false;
        if (stall_start + give_up_stall_s < finish) {
          // The stall will outlast the viewer's patience: they walk out
          // mid-stall (engagement studies tie long rebuffers to abandons).
          obs::count(obs::Counter::kRebuffers);
          obs::observe(obs::Hist::kStallSeconds, give_up_stall_s);
          sink.on_rebuffer(
              {stall_start, give_up_stall_s, k,
               stall_during_fault(stall_start,
                                  stall_start + give_up_stall_s)});
          sum.abandoned = true;
          gave_up = true;
          break;
        }
      } else {
        buffer -= dl;
        played += dl;
      }
    }

    buffer += V;
    t = finish;
    prev_finish_s = finish;

    if (!playing) {
      const double threshold =
          sum.started ? resume_threshold_s : play_threshold_s;
      // The last chunk always releases playback: there is nothing more to
      // wait for.
      if (buffer >= threshold || k + 1 == n) {
        playing = true;
        if (!sum.started) {
          sum.started = true;
          sum.join_s = t;
        } else {
          close_stall(t);
        }
      }
    }

    last_dl = dl;
    last_tp = dl > 0.0 ? size / dl : 0.0;
    ++obs_chunks;
    obs::observe(obs::Hist::kDownloadSeconds, dl);
    if (off_wait > 0.0) {
      ++obs_offs;
      obs::observe(obs::Hist::kOffWaitSeconds, off_wait);
    }
    if (k > start_chunk && r != prev_rate) ++obs_switches;
    const double position_s =
        position_offset_s + V * static_cast<double>(k - start_chunk);
    sink.on_chunk({k, r, ladder.rate_bps(r), size, req_t, finish, dl,
                   last_tp, buffer, off_wait, position_s},
                  played);
    prev_rate = r;
  }

  if (gave_up) {
    sum.played_s = played;
    sum.wall_s = stall_start + give_up_stall_s;
  } else {
    // Downloads are done (or the session was cut); play out the buffer.
    if (!sum.started && buffer > 0.0) {
      sum.started = true;
      sum.join_s = t;
      playing = true;
    }
    if (playing || buffer > 0.0) {
      close_stall(t);
      const double drain =
          std::min(buffer, std::max(0.0, watch_limit - played));
      played += drain;
      t += drain;
      buffer -= drain;
    }
    close_stall(t);  // session ended while stalled: close at session end
    sum.played_s = played;
    sum.wall_s = t;
  }

  if constexpr (requires { policy.on_session_end(); }) {
    policy.on_session_end();
  }
  if constexpr (kLocalPolicy) caller_policy = policy;
  obs::count(obs::Counter::kSessions);
  if (sum.abandoned) obs::count(obs::Counter::kSessionsAbandoned);
  obs::count(obs::Counter::kChunksDownloaded, obs_chunks);
  obs::count(obs::Counter::kOffPeriods, obs_offs);
  obs::count(obs::Counter::kRateSwitches, obs_switches);
  obs::count(obs::Counter::kCursorQueries, src.queries());
  obs::count(obs::Counter::kCursorRewinds, src.rewinds());
  sink.on_session_end(sum);
}

}  // namespace bba::sim
