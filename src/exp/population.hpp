// Synthetic user population with diurnal congestion.
//
// Substitute for the paper's real user base (DESIGN.md Sec. 1). Each
// session draws an access tier (fiber/cable/DSL/mobile), a per-user base
// capacity, and an hour-of-day congestion state. Peak windows (0-6 GMT,
// the paper's highlighted USA evening) have lower medians and much higher
// within-session variability; a heavy tail of sessions reproduces the
// paper's variability statistics (~10% of sessions with 75/25 throughput
// ratio >= 5.6, ~10% with median < half the 95th percentile).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "exp/session_key.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "net/trace_gen.hpp"
#include "util/rng.hpp"

namespace bba::net {
struct TraceStream;
}  // namespace bba::net

namespace bba::exp {

/// Number of two-hour GMT windows in a day.
inline constexpr std::size_t kWindowsPerDay = 12;

/// "HH-HH" label of a two-hour GMT window (0 -> "00-02").
std::string window_label(std::size_t window);

/// True for the paper's highlighted USA peak-viewing windows
/// (8pm-1am EDT ~= 00-06 GMT).
bool is_peak_window(std::size_t window);

/// One access-network tier.
struct TierSpec {
  std::string name;
  double weight;            ///< population share (unnormalized)
  double median_bps;        ///< tier median capacity
  double user_sigma_log;    ///< per-user spread of the base capacity
};

/// Environment drawn for one session: everything needed to generate its
/// capacity trace.
struct UserEnvironment {
  std::size_t tier = 0;
  net::MarkovTraceConfig trace;
  bool has_outages = false;
  net::OutageConfig outages;
};

/// Population model configuration.
struct PopulationConfig {
  std::vector<TierSpec> tiers = {
      {"fiber", 0.10, 14e6, 0.35},
      {"cable", 0.35, 6.5e6, 0.40},
      {"dsl", 0.33, 3.0e6, 0.45},
      {"mobile", 0.22, 2.0e6, 0.45},
  };

  /// Capacity multiplier applied to the tier median per window.
  std::array<double, kWindowsPerDay> capacity_factor = {
      0.55, 0.50, 0.60, 0.80, 1.00, 1.00,
      1.00, 1.00, 0.95, 0.90, 0.75, 0.65};

  /// Baseline within-session variability (log-sigma of the Markov levels)
  /// per window: congested peak hours vary much more.
  std::array<double, kWindowsPerDay> sigma_log = {
      0.70, 0.75, 0.70, 0.40, 0.30, 0.30,
      0.30, 0.30, 0.35, 0.40, 0.40, 0.60};

  /// Heavy tail: per-window fraction of sessions whose variability is
  /// boosted (WiFi interference, client-side congestion, overloaded
  /// servers -- the paper's Fig. 1 sessions).
  std::array<double, kWindowsPerDay> wild_fraction = {
      0.20, 0.22, 0.20, 0.12, 0.06, 0.06,
      0.06, 0.06, 0.08, 0.10, 0.14, 0.18};
  double wild_sigma_log = 1.30;

  /// Per-window fraction of badly degraded sessions (overloaded links
  /// whose median sits near or below R_min): these produce the floor of
  /// rebuffering that even R_min-Always cannot avoid.
  std::array<double, kWindowsPerDay> degraded_fraction = {
      0.120, 0.140, 0.120, 0.060, 0.035, 0.035,
      0.035, 0.035, 0.050, 0.060, 0.080, 0.110};
  double degraded_capacity_factor = 0.22;
  /// Degraded links are slow but comparatively steady (a saturated uplink,
  /// not interference): their own level sigma, immune to the wild boost.
  double degraded_sigma_log = 0.45;
  /// Degraded medians are clamped here: links much slower than R_min make
  /// users give up entirely and would swamp the rebuffer statistics.
  double degraded_floor_bps = 240e3;

  /// Fraction of sessions that experience temporary outages (Sec. 7.1).
  double outage_session_fraction = 0.15;

  /// Additional fault passes applied to EVERY session's trace on top of
  /// the baseline outage process above (--faults). Driven by a dedicated
  /// StreamClass::kFaults substream, so an empty plan (the default)
  /// leaves every trace -- and every experiment output --
  /// byte-identical to a build without fault injection.
  net::FaultPlan faults;

  /// Markov level dwell time (mean seconds at one capacity level).
  double mean_dwell_s = 10.0;

  /// Capacity floor/ceiling. A session's fades are bounded below by
  /// median/fade_depth_ratio (a healthy cable link does not fade to
  /// dial-up speeds), clamped to [min_bps, fade_floor_cap_bps].
  double min_bps = 40e3;
  double max_bps = 120e6;
  double fade_depth_ratio = 8.0;
  double fade_floor_cap_bps = 500e3;
};

/// Deterministic sampler of user environments and capacity traces.
class Population {
 public:
  explicit Population(PopulationConfig cfg = {});

  const PopulationConfig& config() const { return cfg_; }

  /// Samples the environment of one session in the given window.
  UserEnvironment sample_environment(std::size_t window,
                                     util::Rng& rng) const;

  /// Builds the session's capacity trace from its environment.
  net::CapacityTrace make_trace(const UserEnvironment& env,
                                util::Rng& rng) const;

  /// Coordinate-keyed variant: the environment is a pure function of the
  /// key (stream class kEnvironment), independent of any other session or
  /// of how many draws preceded it. The window is taken from the key.
  UserEnvironment environment_for(const SessionKey& key) const;

  /// Coordinate-keyed variant of make_trace (stream class kTrace): the
  /// trace depends only on (env, key), not on the environment phase's
  /// draw count.
  net::CapacityTrace trace_for(const UserEnvironment& env,
                               const SessionKey& key) const;

  /// Allocation-free make_trace: rebuilds `out` in place through `scratch`
  /// (net::TraceScratch + CapacityTrace::assign). Produces a trace
  /// bit-identical to make_trace with the same rng, with zero steady-state
  /// heap allocation once the buffers have grown to the workload.
  void make_trace_into(const UserEnvironment& env, util::Rng& rng,
                       net::TraceScratch& scratch,
                       net::CapacityTrace& out) const;

  /// Allocation-free trace_for, same equivalence guarantee.
  void trace_for_into(const UserEnvironment& env, const SessionKey& key,
                      net::TraceScratch& scratch,
                      net::CapacityTrace& out) const;

  /// Lazy trace_for: rebinds `stream` to the key's kTrace substream, with
  /// the environment's outages spliced in as the stream generates. The
  /// stream's segments equal trace_for's bit for bit. Fault plans are not
  /// applied (they read the finished trace; see inject_faults).
  void stream_into(const UserEnvironment& env, const SessionKey& key,
                   net::TraceStream& stream) const;

  /// True when the config carries a non-empty fault plan.
  bool has_faults() const { return !cfg_.faults.empty(); }

  /// Applies config().faults to `trace` in place, filling
  /// `scratch.events` with the injected faults (cleared first). The fault
  /// randomness is the session's StreamClass::kFaults substream -- a pure
  /// function of the key, independent of every other phase. No-op (and no
  /// substream derivation) when the plan is empty. Call after trace_for /
  /// trace_for_into; the harness and bba_session --repro both do, so a
  /// replayed session sees the exact faults of the original run.
  void inject_faults(const SessionKey& key, net::FaultScratch& scratch,
                     net::CapacityTrace& trace) const;

 private:
  PopulationConfig cfg_;
  std::vector<double> tier_weights_;
};

}  // namespace bba::exp
