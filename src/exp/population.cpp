#include "exp/population.hpp"

#include <algorithm>
#include <cmath>

#include "net/trace_stream.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace bba::exp {

std::string window_label(std::size_t window) {
  BBA_ASSERT(window < kWindowsPerDay, "window out of range");
  return util::format("%02zu-%02zu", window * 2, window * 2 + 2);
}

bool is_peak_window(std::size_t window) {
  BBA_ASSERT(window < kWindowsPerDay, "window out of range");
  return window < 3;  // 00-06 GMT ~= 8pm-1am EDT
}

Population::Population(PopulationConfig cfg) : cfg_(std::move(cfg)) {
  BBA_ASSERT(!cfg_.tiers.empty(), "population requires at least one tier");
  tier_weights_.reserve(cfg_.tiers.size());
  for (const auto& tier : cfg_.tiers) {
    BBA_ASSERT(tier.weight >= 0.0 && tier.median_bps > 0.0,
               "invalid tier spec");
    tier_weights_.push_back(tier.weight);
  }
}

UserEnvironment Population::sample_environment(std::size_t window,
                                               util::Rng& rng) const {
  BBA_ASSERT(window < kWindowsPerDay, "window out of range");
  UserEnvironment env;
  env.tier = rng.weighted_index(tier_weights_);
  const TierSpec& tier = cfg_.tiers[env.tier];

  // Per-user base capacity around the tier median, scaled by the window's
  // congestion factor.
  double user_median = tier.median_bps *
                       std::exp(rng.normal(0.0, tier.user_sigma_log)) *
                       cfg_.capacity_factor[window];
  const bool degraded = rng.bernoulli(cfg_.degraded_fraction[window]);
  if (degraded) {
    user_median = std::max(user_median * cfg_.degraded_capacity_factor,
                           cfg_.degraded_floor_bps);
  }

  env.trace.median_bps = std::clamp(user_median, cfg_.min_bps, cfg_.max_bps);
  env.trace.min_bps =
      std::clamp(env.trace.median_bps / cfg_.fade_depth_ratio, cfg_.min_bps,
                 cfg_.fade_floor_cap_bps);
  env.trace.sigma_log = cfg_.sigma_log[window];
  if (rng.bernoulli(cfg_.wild_fraction[window])) {
    env.trace.sigma_log = cfg_.wild_sigma_log;
  }
  if (degraded) {
    env.trace.sigma_log = cfg_.degraded_sigma_log;
  }
  env.trace.mean_dwell_s = cfg_.mean_dwell_s;
  env.trace.min_bps = cfg_.min_bps;
  env.trace.max_bps = cfg_.max_bps;
  env.trace.duration_s = 7200.0;

  env.has_outages = rng.bernoulli(cfg_.outage_session_fraction);
  return env;
}

net::CapacityTrace Population::make_trace(const UserEnvironment& env,
                                          util::Rng& rng) const {
  net::CapacityTrace trace = net::make_markov_trace(env.trace, rng);
  if (env.has_outages) {
    trace = net::with_outages(trace, env.outages, rng);
  }
  return trace;
}

UserEnvironment Population::environment_for(const SessionKey& key) const {
  util::Rng rng = session_rng(key, StreamClass::kEnvironment);
  return sample_environment(static_cast<std::size_t>(key.window), rng);
}

net::CapacityTrace Population::trace_for(const UserEnvironment& env,
                                         const SessionKey& key) const {
  util::Rng rng = session_rng(key, StreamClass::kTrace);
  return make_trace(env, rng);
}

void Population::make_trace_into(const UserEnvironment& env, util::Rng& rng,
                                 net::TraceScratch& scratch,
                                 net::CapacityTrace& out) const {
  // Same rng consumption order as make_trace: the Markov levels first,
  // then the outage process.
  net::make_markov_trace_into(env.trace, rng, scratch.segments);
  if (env.has_outages) {
    net::insert_outages(scratch.segments, env.outages, rng,
                        scratch.outage_segments);
    out.assign(scratch.outage_segments, /*loop=*/true);
  } else {
    out.assign(scratch.segments, /*loop=*/true);
  }
}

void Population::stream_into(const UserEnvironment& env,
                             const SessionKey& key,
                             net::TraceStream& stream) const {
  stream.reset(env.trace, session_rng(key, StreamClass::kTrace),
               env.has_outages ? &env.outages : nullptr);
}

void Population::trace_for_into(const UserEnvironment& env,
                                const SessionKey& key,
                                net::TraceScratch& scratch,
                                net::CapacityTrace& out) const {
  util::Rng rng = session_rng(key, StreamClass::kTrace);
  make_trace_into(env, rng, scratch, out);
}

void Population::inject_faults(const SessionKey& key,
                               net::FaultScratch& scratch,
                               net::CapacityTrace& trace) const {
  scratch.events.clear();
  if (cfg_.faults.empty()) return;
  util::Rng rng = session_rng(key, StreamClass::kFaults);
  net::apply_fault_plan(trace.segments(), cfg_.faults, rng, scratch,
                        scratch.result, &scratch.events);
  trace.assign(scratch.result, trace.loops());
}

}  // namespace bba::exp
