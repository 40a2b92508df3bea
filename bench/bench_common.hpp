// Shared setup for the figure-reproduction benches: the paper's standard
// experiment (Control / R_min-Always / BBA-x groups over three simulated
// days) at a size that runs in seconds, plus small helpers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "cli_parse.hpp"
#include "exp/abtest.hpp"
#include "exp/dump.hpp"
#include "exp/report.hpp"
#include "media/video.hpp"

namespace bba::bench {

/// Reads a bench's flags: the experiment flags `accept` names into `cfg`
/// (tools/cli_parse.hpp), and the bench's own through `own(i)`, which
/// returns whether it took argv[i]. Anything else prints the usage, with
/// `own_usage` for the bench's own flags, and exits 2 (0 for --help).
template <typename Own>
void read_flags(int argc, char** argv, exp::AbTestConfig* cfg,
                unsigned accept, const char* own_usage, Own own) {
  for (int i = 1; i < argc; ++i) {
    if (tools::consume_experiment_arg(argc, argv, i, cfg, accept) || own(i)) {
      continue;
    }
    const std::string_view arg = argv[i];
    std::fprintf(stderr, "usage: %s\n%s%s", argv[0],
                 tools::experiment_usage(accept).c_str(), own_usage);
    std::exit(arg == "--help" || arg == "-h" ? 0 : 2);
  }
}

/// The standard experiment every figure bench runs, at --seed (default
/// 2014, the reference realization) and --threads (default 0 = all
/// hardware threads; results are bit-identical for every value). Like the
/// paper's fixed A/B weekends, the figures are one concrete realization of
/// the population; the shape checks hold for most seeds but can flip on
/// unlucky draws of the noisier peak-window ratios.
inline exp::AbTestConfig standard_config(int argc, char** argv) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 120;
  cfg.days = 3;
  read_flags(argc, argv, &cfg, tools::kSeedFlag | tools::kThreadsFlag, "",
             [](int) { return false; });
  return cfg;
}

/// The shared title library (seeded identically across benches).
inline const media::VideoLibrary& standard_library() {
  static const media::VideoLibrary library = media::VideoLibrary::standard(11);
  return library;
}

/// Runs the experiment with the requested groups (exp::abr_factory names).
inline exp::AbTestResult run_standard_groups(
    const exp::AbTestConfig& cfg, const std::vector<std::string>& names) {
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
  return exp::run_ab_test(groups, standard_library(), cfg);
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
