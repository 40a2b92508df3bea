// Shared setup for the figure-reproduction benches: the paper's standard
// experiment (Control / R_min-Always / BBA-x groups over three simulated
// days) at a size that runs in seconds, plus small helpers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <filesystem>

#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/dump.hpp"
#include "exp/report.hpp"
#include "media/video.hpp"
#include "obs/setup.hpp"
#include "util/csv.hpp"

namespace bba::bench {

/// The unsigned integer in environment variable `name`, or `fallback` when
/// it is unset or empty. A malformed value is a usage error (exit 2), not
/// a silent 0.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return util::parse_u64_or_exit(name, env);
}

/// Session-simulation threads for the benches: BBA_THREADS if set, else 0
/// (= all hardware threads). Results are bit-identical for every value.
inline std::size_t bench_threads() {
  return static_cast<std::size_t>(env_u64("BBA_THREADS", 0));
}

/// Experiment seed for the benches: BBA_SEED if set, else the reference
/// realization. Like the paper's fixed A/B weekends, the figures are one
/// concrete realization of the population; the shape checks hold for most
/// seeds but can flip on unlucky draws of the noisier peak-window ratios.
inline std::uint64_t bench_seed() { return env_u64("BBA_SEED", 2014); }

/// Standard experiment dimensions used by every figure bench.
inline exp::AbTestConfig standard_config() {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 120;
  cfg.days = 3;
  cfg.seed = bench_seed();
  cfg.threads = bench_threads();
  return cfg;
}

/// The shared title library (seeded identically across benches).
inline const media::VideoLibrary& standard_library() {
  static const media::VideoLibrary library = media::VideoLibrary::standard(11);
  return library;
}

/// Checkpoint knobs for the benches, driven purely by the
/// BBA_CHECKPOINT_OUT / BBA_CHECKPOINT_EVERY / BBA_CHECKPOINT_RESUME /
/// BBA_CHECKPOINT_SHARD / BBA_CHECKPOINT_KILL environment (benches take no
/// flags). With nothing set this is the default options, and
/// run_standard_groups is exactly run_ab_test.
inline const exp::CheckpointOptions& checkpoint_from_env() {
  static const exp::CheckpointOptions opts = exp::CheckpointOptions::from_env();
  return opts;
}

/// Observability for the benches, driven purely by the BBA_TRACE /
/// BBA_TRACE_SAMPLE / BBA_METRICS / BBA_PROFILE environment (benches take
/// no flags). Installed for the process lifetime on first use; with no
/// variable set this is inert. Tracing a figure bench never changes its
/// numbers -- same contract as the harness.
inline void obs_from_env() {
  static const obs::ObsOptions opts = [] {
    obs::ObsOptions o = obs::ObsOptions::from_env();
    o.trace_resume = checkpoint_from_env().resuming();
    return o;
  }();
  static obs::ObsScope scope(opts, bench_threads());
}

/// Runs the experiment with the requested groups (exp::abr_factory names).
inline exp::AbTestResult run_standard_groups(
    const std::vector<std::string>& names) {
  obs_from_env();
  std::vector<exp::Group> groups;
  groups.reserve(names.size());
  for (const auto& name : names) {
    exp::AbrFactory factory = exp::abr_factory(name);
    if (!factory) {
      std::fprintf(stderr, "unknown group: %s\n", name.c_str());
      std::abort();
    }
    groups.push_back({name, std::move(factory)});
  }
  exp::AbTestResult result;
  std::string error;
  if (!exp::run_ab_test_checkpointed(groups, standard_library(),
                                     standard_config(),
                                     checkpoint_from_env(), &result,
                                     &error)) {
    std::fprintf(stderr, "checkpoint: %s\n", error.c_str());
    std::abort();
  }
  return result;
}

/// Prints the bench banner.
inline void banner(const char* figure, const char* claim) {
  std::printf("=== %s ===\n%s\n\n", figure, claim);
}

/// Writes the figure's plot data (merged + per-day CSVs) under
/// ./figure_data/. Failures are reported but non-fatal: the printed rows
/// remain the primary output.
inline void dump_figure(const exp::AbTestResult& result,
                        const exp::MetricDef& metric,
                        const char* figure_id) {
  std::error_code ec;
  std::filesystem::create_directories("figure_data", ec);
  const std::string base = std::string("figure_data/") + figure_id;
  const bool ok =
      exp::dump_metric_csv(base + ".csv", result, metric) &&
      exp::dump_metric_per_day_csv(base + "_per_day.csv", result, metric);
  std::printf("%s\n", ok ? ("plot data: " + base + ".csv").c_str()
                         : "plot data: write failed (non-fatal)");
}

/// Turns accumulated shape-check results into a process exit code.
inline int verdict(bool all_ok) {
  std::printf("\n%s\n", all_ok ? "All shape checks passed."
                               : "SHAPE CHECK FAILURE(S) above.");
  return all_ok ? 0 : 1;
}

}  // namespace bba::bench
