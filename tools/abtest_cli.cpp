// bba_abtest: run a custom A/B experiment from the command line.
//
//   bba_abtest [--groups control,bba2,...]
//              [--metric rebuffers|rate|steady|startup|switches]
//              [--baseline GROUP] [--csv PREFIX]
//              [--sequential] [--batch-sessions N] [--confidence C]
//              [--min-batches K] [--seq-log FILE]
//              [the harness flags: tools::HarnessFlags]
//
// Groups: any exp::abr_factory name -- control, rmin-always, rmax-always,
// bba0, bba1, bba2, bba-others, throughput, pid, elastic, bola. Prints the per-window table, the normalized summary,
// and (with --csv) writes plot-ready data. With --sequential the fixed
// population is replaced by the best-arm-identification engine
// (docs/sequential.md): deterministic batches, successive elimination at
// --confidence, early stop once one arm survives.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/dump.hpp"
#include "exp/report.hpp"
#include "media/video.hpp"
#include "obs/setup.hpp"
#include "seq/engine.hpp"

namespace {

using namespace bba;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (true) {
    const auto comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--groups g1,g2,...]\n"
      "          [--metric rebuffers|rate|steady|startup|switches]\n"
      "          [--baseline GROUP] [--csv PREFIX]\n"
      "          [--sequential]  (best-arm identification with early\n"
      "                          stopping, docs/sequential.md; the fixed\n"
      "                          budget is groups*sessions*days*12)\n"
      "          [--batch-sessions N] (keys per round, default 120)\n"
      "          [--confidence C] (elimination confidence in (0,1),\n"
      "                          default 0.95)\n"
      "          [--min-batches K] (rounds before eliminating, default 2)\n"
      "          [--seq-log FILE] (decision log JSONL; default stdout)\n"
      "%s"
      "groups: control rmin-always rmax-always bba0 bba1 bba2 bba-others "
      "throughput pid elastic bola\n",
      argv0, tools::HarnessFlags::usage().c_str());
}

/// Prints "--flag: expects DETAIL, got 'VALUE'" and exits 2.
[[noreturn]] void bad_value(const char* flag, const char* detail,
                            const char* value) {
  std::fprintf(stderr, "%s: expects %s, got '%s'\n", flag, detail, value);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> group_names{"control", "rmin-always", "bba2"};
  tools::HarnessFlags flags;
  const exp::AbTestConfig& cfg = flags.cfg;
  const exp::CheckpointOptions& ckpt = flags.ckpt;
  const obs::ObsOptions& obs_opts = flags.obs;
  std::string metric_name = "rebuffers";
  std::string baseline = "control";
  std::string csv_prefix;
  bool sequential = false;
  seq::SeqConfig seq_cfg;
  std::string seq_log_path;

  for (int i = 1; i < argc; ++i) {
    if (flags.consume_arg(argc, argv, i)) continue;
    const std::string arg = argv[i];
    auto next = [&] { return util::flag_value_or_exit(argc, argv, i); };
    if (arg == "--groups") {
      group_names = split_csv(next());
    } else if (arg == "--metric") {
      metric_name = next();
    } else if (arg == "--baseline") {
      baseline = next();
    } else if (arg == "--csv") {
      csv_prefix = next();
    } else if (arg == "--sequential") {
      sequential = true;
    } else if (arg == "--batch-sessions") {
      const char* v = next();
      if (!tools::parse_count(v, &seq_cfg.batch_sessions)) {
        bad_value("--batch-sessions", "a positive key count", v);
      }
    } else if (arg == "--confidence") {
      const char* v = next();
      if (!tools::parse_unit_open(v, &seq_cfg.confidence)) {
        bad_value("--confidence", "a number in (0, 1)", v);
      }
    } else if (arg == "--min-batches") {
      const char* v = next();
      if (!tools::parse_count(v, &seq_cfg.min_batches)) {
        bad_value("--min-batches", "a positive round count", v);
      }
    } else if (arg == "--seq-log") {
      seq_log_path = next();
    } else {
      usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  flags.finish();
  if (group_names.empty() ||
      (group_names.size() == 1 && group_names[0].empty())) {
    usage(argv[0]);
    return 2;
  }
  if (sequential && group_names.size() < 2) {
    std::fprintf(stderr, "--sequential needs at least two groups\n");
    return 2;
  }
  if (sequential && ckpt.sharded()) {
    std::fprintf(stderr,
                 "--shard partitions the fixed (day, window) grid; "
                 "sequential runs cannot shard\n");
    return 2;
  }

  std::vector<exp::Group> groups;
  for (const auto& name : group_names) {
    exp::AbrFactory factory = exp::abr_factory(name);
    if (!factory) {
      std::fprintf(stderr, "unknown group: %s\n", name.c_str());
      return 2;
    }
    groups.push_back({name, std::move(factory)});
  }

  seq::SeqMetric seq_metric;
  if (!seq::seq_metric_by_name(metric_name, &seq_metric)) {
    std::fprintf(stderr, "unknown metric: %s\n", metric_name.c_str());
    return 2;
  }
  const exp::MetricDef metric = seq_metric.def;

  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  obs::ObsScope obs_scope(obs_opts, cfg.threads);
  if (!obs_scope.ok()) return 1;

  if (sequential) {
    if (!obs_opts.alerts_out.empty()) {
      // The sequential engine folds keys in its own adaptive order, not
      // the canonical grid, so the monitor's cell-close discipline does
      // not apply; the alerts artifact would not be reproducible.
      std::fprintf(stderr,
                   "note: --alerts-out is not wired for --sequential runs; "
                   "no alerts artifact will be written\n");
    }
    std::size_t baseline_index = groups.size();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].name == baseline) baseline_index = g;
    }
    if (baseline_index == groups.size()) {
      std::fprintf(stderr,
                   "--sequential needs --baseline to name one of the "
                   "groups (got '%s')\n",
                   baseline.c_str());
      return 2;
    }
    seq_cfg.baseline = baseline_index;
    std::printf("sequential: %zu arms, metric %s, batch %zu keys, "
                "confidence %.3f, budget %zu sessions (seed %llu)\n\n",
                groups.size(), metric_name.c_str(), seq_cfg.batch_sessions,
                seq_cfg.confidence,
                groups.size() * cfg.sessions_per_window * cfg.days *
                    exp::kWindowsPerDay,
                static_cast<unsigned long long>(cfg.seed));
    seq::SeqResult sr;
    std::string ckpt_error;
    if (!seq::run_sequential_checkpointed(groups, library, cfg, seq_metric,
                                          seq_cfg, ckpt, &sr, &ckpt_error)) {
      std::fprintf(stderr, "checkpoint: %s\n", ckpt_error.c_str());
      return 1;
    }

    std::printf("%-14s %10s %12s %24s  %s\n", "arm", "sessions", "mean d",
                "CI", "status");
    for (const auto& arm : sr.arms) {
      char status[40];
      if (arm.eliminated_round > 0) {
        std::snprintf(status, sizeof(status), "eliminated (round %zu)",
                      arm.eliminated_round);
      } else {
        std::snprintf(status, sizeof(status), "%s",
                      arm.name == sr.winner ? "WINNER" : "contested");
      }
      std::printf("%-14s %10lld %12.4f [%10.4f, %10.4f]  %s%s\n",
                  arm.name.c_str(), arm.n, arm.mean, arm.lo, arm.hi, status,
                  arm.is_baseline ? " (baseline)" : "");
    }
    std::printf("\nverdict: %s, winner %s after %zu rounds; "
                "%zu / %zu sessions used (%.1f%% saved)\n",
                sr.verdict.c_str(), sr.winner.c_str(), sr.rounds,
                sr.sessions_used, sr.budget_sessions,
                100.0 * sr.saved_fraction());
    if (!seq_log_path.empty()) {
      std::FILE* f = std::fopen(seq_log_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "could not open %s\n", seq_log_path.c_str());
        return 1;
      }
      const bool wrote = std::fputs(sr.decision_log.c_str(), f) >= 0;
      if (std::fclose(f) != 0 || !wrote) {
        std::fprintf(stderr, "could not write %s\n", seq_log_path.c_str());
        return 1;
      }
      // stderr, so stdout stays byte-comparable across runs that write
      // their logs to different paths (the seq-smoke CI job diffs it).
      std::fprintf(stderr, "wrote decision log to %s\n",
                   seq_log_path.c_str());
    } else {
      std::printf("\ndecision log:\n%s", sr.decision_log.c_str());
    }
    return obs_scope.finish() ? 0 : 1;
  }

  std::printf("running %zu groups x %zu sessions/window x %zu days "
              "(seed %llu)...\n\n",
              groups.size(), cfg.sessions_per_window, cfg.days,
              static_cast<unsigned long long>(cfg.seed));
  exp::AbTestResult result;
  std::string ckpt_error;
  if (!exp::run_ab_test_checkpointed(groups, library, cfg, ckpt, &result,
                                     &ckpt_error)) {
    std::fprintf(stderr, "checkpoint: %s\n", ckpt_error.c_str());
    return 1;
  }

  std::fputs(exp::absolute_by_window(result, metric).c_str(), stdout);
  std::printf("\n");
  bool has_baseline = false;
  for (const auto& name : result.group_names) {
    if (name == baseline) has_baseline = true;
  }
  if (has_baseline) {
    std::fputs(exp::normalized_by_window(result, metric, baseline).c_str(),
               stdout);
    std::printf("\n");
    for (const auto& name : result.group_names) {
      if (name == baseline) continue;
      std::printf("%s/%s overall: %.3f (peak: %.3f)\n", name.c_str(),
                  baseline.c_str(),
                  exp::mean_normalized(result, metric, name, baseline,
                                       false),
                  exp::mean_normalized(result, metric, name, baseline,
                                       true));
    }
  }
  if (!csv_prefix.empty()) {
    const std::string merged = csv_prefix + "_" + metric_name + ".csv";
    const std::string per_day =
        csv_prefix + "_" + metric_name + "_per_day.csv";
    if (exp::dump_metric_csv(merged, result, metric) &&
        exp::dump_metric_per_day_csv(per_day, result, metric)) {
      std::printf("\nwrote %s and %s\n", merged.c_str(), per_day.c_str());
    } else {
      std::fprintf(stderr, "could not write CSV output\n");
      return 1;
    }
  }
  return obs_scope.finish() ? 0 : 1;
}
