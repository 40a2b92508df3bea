// bba_paper_report: one-shot reproduction report.
//
//   bba_paper_report [--sessions N] [--days N] [--seed S] [--threads N]
//                    [--out REPORT.md]
//
// Runs a single A/B experiment with all six groups (Control, R_min-Always,
// BBA-0/1/2/Others) and renders every A/B-based figure of the paper from
// it -- the same numbers the individual fig* benches produce, computed
// from one shared run and written as a Markdown report with bootstrap
// confidence intervals.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/dump.hpp"
#include "exp/report.hpp"
#include "media/video.hpp"
#include "net/fault_inject.hpp"
#include "obs/setup.hpp"
#include "util/table.hpp"

namespace {

using namespace bba;

/// Accumulates Markdown and mirrors it to stdout.
class Report {
 public:
  void line(const std::string& s) {
    text_ += s;
    text_ += '\n';
    std::printf("%s\n", s.c_str());
  }
  void blank() { line(""); }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool wrote = std::fputs(text_.c_str(), f) >= 0;
    return std::fclose(f) == 0 && wrote;
  }

 private:
  std::string text_;
};

std::string ratio_row(const exp::AbTestResult& result,
                      const exp::MetricDef& metric, const char* group,
                      const char* label) {
  const double all =
      exp::mean_normalized(result, metric, group, "control", false);
  const double peak =
      exp::mean_normalized(result, metric, group, "control", true);
  const stats::BootstrapCi ci =
      exp::normalized_ci(result, metric, group, "control");
  return util::format(
      "| %s | %.2fx | %.2fx | [%.2f, %.2f] |", label, all, peak, ci.lo,
      ci.hi);
}

}  // namespace

int main(int argc, char** argv) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 120;
  cfg.days = 3;
  cfg.seed = 2014;
  std::string out_path = "REPORT.md";
  std::string faults_spec;
  if (const char* env = std::getenv("BBA_FAULTS")) faults_spec = env;
  obs::ObsOptions obs_opts = obs::ObsOptions::from_env();
  exp::CheckpointOptions ckpt = exp::CheckpointOptions::from_env();

  for (int i = 1; i < argc; ++i) {
    if (obs_opts.consume_arg(argc, argv, i)) continue;
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto parsed = [&](const char* flag, bool ok, const char* value,
                      const char* detail) {
      if (!ok) {
        std::fprintf(stderr, "%s: expects %s, got '%s'\n", flag, detail,
                     value);
        std::exit(2);
      }
    };
    if (arg == "--sessions") {
      const char* v = next("--sessions");
      parsed("--sessions", tools::parse_count(v, &cfg.sessions_per_window),
             v, "a positive session count");
    } else if (arg == "--days") {
      const char* v = next("--days");
      parsed("--days", tools::parse_count(v, &cfg.days), v,
             "a positive day count");
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      parsed("--seed", tools::parse_u64(v, &cfg.seed), v,
             "an unsigned integer");
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      parsed("--threads", tools::parse_count0(v, &cfg.threads), v,
             "a thread count >= 0 (0 = hardware)");
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--faults") {
      faults_spec = next("--faults");
    } else if (arg == "--checkpoint-out") {
      ckpt.out = next("--checkpoint-out");
    } else if (arg == "--checkpoint-every") {
      const char* v = next("--checkpoint-every");
      parsed("--checkpoint-every", tools::parse_count(v, &ckpt.every), v,
             "a positive key count");
    } else if (arg == "--resume") {
      ckpt.resume = next("--resume");
    } else if (arg == "--shard") {
      const char* v = next("--shard");
      parsed("--shard", ckpt.parse_shard(v), v,
             "K/M with 1 <= K <= M");
    } else if (arg == "--checkpoint-kill") {
      // Test hook: exit(3) after the Nth checkpoint save.
      const char* v = next("--checkpoint-kill");
      parsed("--checkpoint-kill", tools::parse_count(v, &ckpt.kill_after),
             v, "a positive save count");
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions N] [--days N] [--seed S] "
                   "[--threads N] [--out REPORT.md] [--faults SPEC]\n"
                   "       [--checkpoint-out FILE] [--checkpoint-every N] "
                   "[--resume FILE] [--shard K/M]\n"
                   "%s"
                   "  --threads 0 (default) uses all hardware threads; "
                   "the report is bit-identical for every thread count\n"
                   "  --faults injects a fault plan into every session's "
                   "trace (docs/faults.md; default $BBA_FAULTS, else off)\n"
                   "  --checkpoint-out + --checkpoint-every save resumable "
                   "state every N keys (docs/checkpoint.md)\n"
                   "  --resume continues a run from a checkpoint file; the "
                   "finished report is byte-identical\n"
                   "  --shard K/M runs shard K of M and writes a partial "
                   "checkpoint (merge with bba_merge); no report is "
                   "rendered\n",
                   argv[0], obs::ObsOptions::usage());
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  if (ckpt.sharded() && ckpt.out.empty() && !ckpt.resuming()) {
    std::fprintf(stderr, "--shard needs --checkpoint-out\n");
    return 2;
  }
  std::string faults_error;
  if (!net::parse_fault_plan(faults_spec, &cfg.population.faults,
                             &faults_error)) {
    std::fprintf(stderr, "--faults: %s\n", faults_error.c_str());
    return 2;
  }

  const std::vector<exp::Group> groups = {
      {"control", exp::make_control_factory()},
      {"rmin-always", exp::make_rmin_factory()},
      {"bba0", exp::make_bba0_factory()},
      {"bba1", exp::make_bba1_factory()},
      {"bba2", exp::make_bba2_factory()},
      {"bba-others", exp::make_bba_others_factory()},
  };
  std::fprintf(stderr,
               "running 6 groups x %zu sessions/window x %zu days...\n",
               cfg.sessions_per_window, cfg.days);
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  obs_opts.trace_resume = ckpt.resuming();
  obs::ObsScope obs_scope(obs_opts, cfg.threads);
  if (!obs_scope.ok()) return 1;
  exp::AbTestResult result;
  std::string ckpt_error;
  if (!exp::run_ab_test_checkpointed(groups, library, cfg, ckpt, &result,
                                     &ckpt_error)) {
    std::fprintf(stderr, "checkpoint: %s\n", ckpt_error.c_str());
    return 1;
  }
  if (ckpt.sharded()) {
    std::fprintf(stderr,
                 "shard %zu/%zu partial written to %s; merge with "
                 "bba_merge and render via --resume (no report for a "
                 "partial)\n",
                 ckpt.shard_index, ckpt.shard_count, ckpt.out.c_str());
    return obs_scope.finish() ? 0 : 1;
  }

  Report report;
  report.line("# BBA reproduction report");
  report.blank();
  report.line(util::format(
      "One shared A/B run: 6 groups x %zu sessions/window x 12 windows x "
      "%zu days (seed %llu).",
      cfg.sessions_per_window, cfg.days,
      static_cast<unsigned long long>(cfg.seed)));
  report.blank();

  const auto rebuf = exp::rebuffers_per_hour_metric();
  report.line("## Rebuffers per playhour vs Control (Figs. 7, 14, 19, 24)");
  report.blank();
  report.line("| group | overall | peak | bootstrap 95% CI |");
  report.line("|---|---|---|---|");
  report.line(ratio_row(result, rebuf, "rmin-always",
                        "R_min-Always (floor)"));
  report.line(ratio_row(result, rebuf, "bba0", "BBA-0"));
  report.line(ratio_row(result, rebuf, "bba1", "BBA-1"));
  report.line(ratio_row(result, rebuf, "bba2", "BBA-2"));
  report.line(ratio_row(result, rebuf, "bba-others", "BBA-Others"));
  report.blank();

  const auto rate = exp::avg_rate_kbps_metric();
  const auto steady = exp::steady_rate_kbps_metric();
  const auto startup = exp::startup_rate_kbps_metric();
  report.line("## Video rate vs Control, kb/s (Figs. 8, 15, 17, 18, 23)");
  report.blank();
  report.line("| group | Control - group (avg) | Control - group (steady) "
              "| Control - group (startup) |");
  report.line("|---|---|---|---|");
  for (const char* g : {"bba0", "bba1", "bba2", "bba-others"}) {
    report.line(util::format(
        "| %s | %+.0f | %+.0f | %+.0f |", g,
        exp::mean_delta(result, rate, g, "control", false),
        exp::mean_delta(result, steady, g, "control", false),
        exp::mean_delta(result, startup, g, "control", false)));
  }
  report.blank();
  report.line(
      "The steady column weights each session by its steady-state play "
      "hours only (sessions shorter than the 120 s startup window carry no "
      "weight); earlier revisions diluted the mean with whole-session "
      "hours, which shifted steady deltas by a few kb/s.");
  report.blank();

  const auto switches = exp::switches_per_hour_metric();
  report.line("## Switching rate vs Control (Figs. 9, 20, 22)");
  report.blank();
  report.line("| group | overall | peak | bootstrap 95% CI |");
  report.line("|---|---|---|---|");
  for (const char* g : {"bba0", "bba1", "bba2", "bba-others"}) {
    report.line(ratio_row(result, switches, g, g));
  }
  report.blank();

  report.line("## Paper claims checked against this run");
  report.blank();
  struct Claim {
    const char* text;
    bool ok;
  };
  const double bba2_rebuf =
      exp::mean_normalized(result, rebuf, "bba2", "control", false);
  const double bba2_rate =
      exp::mean_delta(result, rate, "bba2", "control", false);
  const double bba2_steady =
      exp::mean_delta(result, steady, "bba2", "control", false);
  const double bba0_sw =
      exp::mean_normalized(result, switches, "bba0", "control", false);
  const double others_sw =
      exp::mean_normalized(result, switches, "bba-others", "control", false);
  const std::vector<Claim> claims = {
      {"BBA-2 rebuffers less than Control (abstract: 10-20%)",
       bba2_rebuf < 1.0},
      {"BBA-2's average rate within 100 kb/s of Control's",
       std::abs(bba2_rate) < 100.0},
      {"BBA-2's steady-state rate above Control's", bba2_steady < 0.0},
      {"BBA-0 switches roughly half as often as Control",
       bba0_sw > 0.25 && bba0_sw < 0.85},
      {"BBA-Others' switching comparable to Control's",
       others_sw > 0.5 && others_sw < 1.35},
  };
  bool all_ok = true;
  for (const auto& claim : claims) {
    all_ok &= claim.ok;
    report.line(util::format("- [%s] %s", claim.ok ? "x" : " ",
                             claim.text));
  }
  report.blank();

  if (!report.write(out_path)) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "report written to %s\n", out_path.c_str());
  return obs_scope.finish() && all_ok ? 0 : 1;
}
