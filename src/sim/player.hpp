// The trace-driven streaming player.
//
// Chunk-level discrete-event simulation of the paper's client model
// (Figs. 2 and 11): chunks are requested sequentially, the buffer drains at
// unit rate while playing, a chunk adds V seconds when its download
// completes, downloads cannot be cancelled mid-flight, and requests pause
// (ON-OFF) when the buffer is full. Download completion times are exact
// integrals of the capacity trace.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "abr/abr.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "net/tcp_model.hpp"
#include "sim/session_result.hpp"
#include "sim/session_sink.hpp"

namespace bba::sim {

/// Player parameters. Defaults match the paper's browser player: 240 s
/// buffer; playback starts when the first chunk lands and resumes from a
/// stall when the in-flight chunk lands.
struct PlayerConfig {
  /// Playback buffer capacity, seconds of video (B_max).
  double buffer_capacity_s = 240.0;

  /// Playback starts once the buffer first reaches this level. The default
  /// (one chunk) starts playback when the first chunk completes.
  double play_threshold_s = 4.0;

  /// After a stall, playback resumes once the buffer reaches this level.
  double resume_threshold_s = 4.0;

  /// Seconds of video the user watches before leaving (session length);
  /// capped by the video duration.
  double watch_duration_s = std::numeric_limits<double>::infinity();

  /// Abort the session if wall-clock time exceeds this (dead-network guard).
  double max_wall_s = std::numeric_limits<double>::infinity();

  /// The viewer gives up if a single stall lasts longer than this
  /// (engagement studies: long rebuffers end sessions). Infinite by
  /// default so quality metrics stay comparable across algorithms.
  double give_up_stall_s = std::numeric_limits<double>::infinity();

  /// First chunk to request (a session that starts mid-title, e.g. the
  /// landing point of a seek). Watch duration counts from here.
  std::size_t start_chunk = 0;

  /// Wall-clock offset of the session start (used when composing seek
  /// segments so timestamps stay monotone across the whole viewing).
  double start_wall_s = 0.0;

  /// Content watched before this session segment began (seek composition);
  /// recorded into each chunk's `position_s`.
  double position_offset_s = 0.0;

  /// When set, chunk downloads ride the TCP slow-start model instead of
  /// instantly running at C(t): idle gaps (ON-OFF) reset the congestion
  /// window and small chunks see degraded throughput (net/tcp_model.hpp).
  std::optional<net::TcpModelConfig> tcp;

  /// Faults injected into the session's trace (borrowed; must outlive the
  /// simulation). When set, each RebufferEvent is attributed: its
  /// `during_fault` flag records whether the stall interval overlapped any
  /// fault window (cycle-aware for looping traces). Null -- the default --
  /// leaves every flag false and changes nothing else.
  const std::vector<net::InjectedFault>* faults = nullptr;
};

/// Runs one session of `video` over `trace` with `abr` choosing rates,
/// emitting every event to `sink` (sim/session_sink.hpp). The ABR is
/// reset() at session start. Deterministic: no internal randomness. It is
/// the virtual-dispatch instantiation of the session player template
/// (sim/simulate.hpp) over net::StreamCursor, the reader the A/B harness
/// uses: the trace -- a user CSV, a non-looping test trace, anything -- is
/// copied into a per-thread TraceStream, so with a reusable sink it
/// performs no heap allocation once that stream has grown to the longest
/// trace the thread plays. Not reentrant on one thread: an ABR or sink
/// must not call it from inside a session. The A/B harness does not come
/// here: it names the ABR's exact type and the sink's (exp/block.cpp).
void simulate_session(const media::Video& video,
                      const net::CapacityTrace& trace,
                      abr::RateAdaptation& abr, const PlayerConfig& config,
                      SessionSink& sink);

/// Convenience wrapper: records everything into a SessionResult via
/// RecordingSink — the historical interface.
SessionResult simulate_session(const media::Video& video,
                               const net::CapacityTrace& trace,
                               abr::RateAdaptation& abr,
                               const PlayerConfig& config = {});

/// One user seek: after watching `after_watched_s` seconds of content
/// (cumulative across the whole viewing), jump to the chunk containing
/// video position `to_position_s`. The buffer is flushed and the ABR is
/// reset -- the paper's startup phase re-runs ("after starting a new video
/// or seeking to a new point", Sec. 6).
struct Seek {
  double after_watched_s = 0.0;
  double to_position_s = 0.0;
};

/// Simulates a viewing with seeks: each seek segment runs as a sub-session
/// (fresh buffer, reset ABR) starting at the seek target; results are
/// concatenated with monotone wall-clock times. `config.watch_duration_s`
/// is the total content watched across all segments. Seeks must be ordered
/// by `after_watched_s`. A segment that reaches the end of the title ends
/// the viewing: later seeks are not applied.
SessionResult simulate_session_with_seeks(const media::Video& video,
                                          const net::CapacityTrace& trace,
                                          abr::RateAdaptation& abr,
                                          const std::vector<Seek>& seeks,
                                          const PlayerConfig& config = {});

}  // namespace bba::sim
