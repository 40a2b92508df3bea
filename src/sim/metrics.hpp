// Session quality metrics, matching the paper's evaluation:
// rebuffers per playhour, time-weighted delivered video rate, switches per
// playhour, and the startup (< 2 min of playback) vs steady-state split used
// for Fig. 18.
#pragma once

#include "sim/session_result.hpp"

namespace bba::sim {

/// Derived per-session metrics.
struct SessionMetrics {
  double play_s = 0.0;            ///< seconds of video played
  double join_s = 0.0;            ///< startup delay (request to first frame)
  long long rebuffer_count = 0;   ///< number of stalls
  double rebuffer_s = 0.0;        ///< total stall time
  double rebuffers_per_hour = 0.0;
  /// Stalls whose interval overlapped an injected fault window
  /// (RebufferEvent::during_fault); 0 when the session ran without fault
  /// injection.
  long long fault_stall_count = 0;

  double avg_rate_bps = 0.0;      ///< delivered rate over all played video
  double startup_rate_bps = 0.0;  ///< delivered rate over video [0, 2 min)
  double steady_rate_bps = 0.0;   ///< delivered rate over video [2 min, end)
  bool has_steady = false;        ///< session played past the startup window

  long long switch_count = 0;     ///< rate changes between adjacent chunks
  double switches_per_hour = 0.0;

  /// Mean buffer level right after each chunk landed, over all downloaded
  /// chunks (0 with no chunks) -- the session's buffer-occupancy summary
  /// for the fleet telemetry sketches. Accumulated in download order by
  /// every metric path, so it is bit-identical across recorded and
  /// streaming execution like the rest of the struct.
  double avg_buffer_s = 0.0;

  bool abandoned = false;

  /// Seconds of played video past the startup window (the weight behind
  /// steady_rate_bps; 0 when !has_steady). Aggregators weight steady-state
  /// rates by this instead of total play time so sessions that never reach
  /// steady state cannot dilute the average.
  double steady_play_s = 0.0;
};

/// Computes metrics from a raw session record. `steady_after_s` is the
/// startup/steady-state boundary (the paper approximates steady state as
/// "the period after the first two minutes in each session").
SessionMetrics compute_metrics(const SessionResult& result,
                               double steady_after_s = 120.0);

}  // namespace bba::sim
