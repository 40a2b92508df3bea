// The A/B test harness.
//
// Reproduces the paper's experiment design: several user groups, identical
// in every respect except the ABR algorithm, streaming over a weekend;
// metrics aggregated per two-hour GMT window and normalized to the Control
// group. We use common random numbers -- user i in every group sees the
// identical environment, title, and watch duration -- which estimates the
// same per-window expectations as the paper's randomized groups, with far
// less variance at simulation scale.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "abr/abr.hpp"
#include "exp/population.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"

namespace bba::exp {

/// Factory producing a fresh ABR instance per session. Called concurrently
/// from the harness's worker threads, so it must be thread-safe -- the
/// stateless `make_*_factory()` lambdas below all are.
using AbrFactory = std::function<std::unique_ptr<abr::RateAdaptation>()>;

/// A named experiment group.
struct Group {
  std::string name;
  /// Called once per worker thread; the instance is reused across
  /// sessions, so reset() (which the player calls at session start) must
  /// fully re-initialize it -- every in-repo ABR does.
  AbrFactory factory;
};

/// Aggregated metrics of one (group, day, window) cell.
struct WindowMetrics {
  double play_hours = 0.0;
  double rebuffer_count = 0.0;
  double rebuffer_s = 0.0;
  double avg_rate_bps = 0.0;      ///< play-time-weighted delivered rate
  double startup_rate_bps = 0.0;  ///< over the first 2 min of each session
  double steady_rate_bps = 0.0;   ///< after the first 2 min
  double switch_count = 0.0;
  long long sessions = 0;

  /// Play hours past each session's 2-minute startup window, summed over
  /// sessions that reached steady state -- the weight behind
  /// steady_rate_bps. Sessions that never reach steady state contribute
  /// nothing to the steady average (they used to dilute it through the
  /// shared play-hours weight).
  double steady_play_hours = 0.0;

  /// Stalls attributed to an injected fault window (fault injection only;
  /// 0 whenever PopulationConfig::faults is empty).
  double fault_stall_count = 0.0;

  double rebuffers_per_hour() const {
    return play_hours > 0.0 ? rebuffer_count / play_hours : 0.0;
  }
  double switches_per_hour() const {
    return play_hours > 0.0 ? switch_count / play_hours : 0.0;
  }
};

/// Experiment dimensions.
struct AbTestConfig {
  std::size_t sessions_per_window = 60;  ///< per group (paired across groups)
  std::size_t days = 3;                  ///< the paper ran Fri-Mon weekends
  /// Reference realization: every stream is a pure function of this seed
  /// and the session's grid coordinates (see exp/session_key.hpp).
  std::uint64_t seed = 2014;
  /// Worker threads simulating sessions: 0 = hardware concurrency, 1 =
  /// sequential. The result is bit-identical for every value (see
  /// docs/runtime.md); this only changes wall-clock time.
  std::size_t threads = 0;
  PopulationConfig population;
  WorkloadConfig workload;
  sim::PlayerConfig player;
};

/// Full experiment output: cells[group][day][window].
struct AbTestResult {
  std::vector<std::string> group_names;
  std::vector<std::vector<std::vector<WindowMetrics>>> cells;

  std::size_t num_groups() const { return group_names.size(); }
  std::size_t num_days() const { return cells.empty() ? 0 : cells[0].size(); }

  /// Index of a group by name; aborts if absent.
  std::size_t group_index(const std::string& name) const;

  /// Metric cell merged over all days for (group, window).
  WindowMetrics merged(std::size_t group, std::size_t window) const;

  /// Per-day values of an arbitrary metric accessor for (group, window) --
  /// the error bars of the paper's figures are the variance of these.
  std::vector<double> per_day(
      std::size_t group, std::size_t window,
      const std::function<double(const WindowMetrics&)>& metric) const;
};

/// Runs the experiment: for each (day, window, user) a shared environment
/// and session spec are drawn, then every group streams it with its own
/// ABR. Sessions are simulated in parallel on `cfg.threads` threads and
/// folded in canonical index order, so the result is deterministic in
/// `cfg.seed` alone -- byte-for-byte independent of the thread count.
AbTestResult run_ab_test(const std::vector<Group>& groups,
                         const media::VideoLibrary& library,
                         const AbTestConfig& cfg);

/// Accumulates one finished session into a window cell (play-time-weighted
/// rate averages, steady-state weighting by steady-eligible hours). The
/// fold both run_ab_test and the sequential engine (src/seq) apply.
void accumulate_session(WindowMetrics& cell, const sim::SessionMetrics& m);

/// The factory for an ABR by the name every tool spells it: control,
/// rmin-always, rmax-always, bba0, bba1, bba2, bba-others, throughput
/// (EWMA 0.3 estimator), pid, elastic, bola. Null for an unknown name.
AbrFactory abr_factory(const std::string& name);

/// Convenience factories for the standard groups.
AbrFactory make_control_factory();
AbrFactory make_rmin_factory();
AbrFactory make_bba0_factory();
AbrFactory make_bba1_factory();
AbrFactory make_bba2_factory();
AbrFactory make_bba_others_factory();

}  // namespace bba::exp
