// bba_paper_report: one-shot reproduction report.
//
//   bba_paper_report [--out REPORT.md]
//                    [the harness flags: tools::HarnessFlags]
//
// Runs a single A/B experiment with all six groups (Control, R_min-Always,
// BBA-0/1/2/Others), renders every A/B figure of the paper from it (each
// from the subset of groups the figure shows, exp/claims.hpp) and checks
// every paper claim on it. Writes a Markdown report with bootstrap
// confidence intervals to --out and each figure's plot data to
// figure_data/ beside it; exits 1 if a claim does not hold.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/claims.hpp"
#include "exp/dump.hpp"
#include "exp/report.hpp"
#include "media/video.hpp"
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
  /// A fenced block of preformatted text (which ends in a newline).
  void preformatted(const std::string& text) {
    line("```");
    text_ += text;
    std::fputs(text.c_str(), stdout);
    line("```");
  }
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
  tools::HarnessFlags flags;
  flags.cfg.sessions_per_window = 120;
  const exp::AbTestConfig& cfg = flags.cfg;
  const exp::CheckpointOptions& ckpt = flags.ckpt;
  std::string out_path = "REPORT.md";

  for (int i = 1; i < argc; ++i) {
    if (flags.consume_arg(argc, argv, i)) continue;
    const std::string arg = argv[i];
    if (arg == "--out") {
      out_path = util::flag_value_or_exit(argc, argv, i);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out REPORT.md]\n%s"
                   "--shard K/M writes a partial checkpoint and no report;\n"
                   "  merge the partials with bba_merge and render the\n"
                   "  report via --resume\n",
                   argv[0], tools::HarnessFlags::usage().c_str());
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  flags.finish();

  std::vector<exp::Group> groups;
  for (const char* name :
       {"control", "rmin-always", "bba0", "bba1", "bba2", "bba-others"}) {
    groups.push_back({name, exp::abr_factory(name)});
  }
  std::fprintf(stderr,
               "running 6 groups x %zu sessions/window x %zu days...\n",
               cfg.sessions_per_window, cfg.days);
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  obs::ObsScope obs_scope(flags.obs, cfg.threads);
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
  const std::vector<exp::Claim>& claims = exp::paper_claims();
  std::size_t held = 0;
  for (const exp::Claim& claim : claims) {
    const double value = claim.value(result);
    const bool ok = claim.holds(result, value);
    held += ok ? 1 : 0;
    report.line(util::format("- [%s] %s: %s (", ok ? "x" : " ", claim.figure,
                             claim.text) +
                util::format(claim.format, value) + ")");
  }
  report.blank();
  report.line(util::format("%zu of %zu claims hold.", held, claims.size()));
  report.blank();

  report.line("## Figures");
  report.blank();
  report.line("Each figure's groups, as in a run of those groups alone. Plot "
              "data: `figure_data/<name>.csv` (merged over days) and "
              "`figure_data/<name>_per_day.csv` beside the report.");
  for (const exp::Figure& fig : exp::paper_figures()) {
    const exp::AbTestResult view = result.select(fig.groups);
    report.blank();
    report.line(util::format("### %s: %s", fig.id, fig.title));
    report.blank();
    report.line(util::format("%s Plot data: `figure_data/%s.csv`.",
                             fig.shape, fig.csv));
    report.blank();
    report.preformatted(
        exp::absolute_by_window(view, fig.metric) + "\n" +
        (fig.delta ? exp::delta_by_window(view, fig.metric, "control")
                   : exp::normalized_by_window(view, fig.metric, "control")));
  }
  report.blank();

  if (!report.write(out_path)) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "report written to %s\n", out_path.c_str());
  const std::filesystem::path data_dir =
      std::filesystem::path(out_path).parent_path() / "figure_data";
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  for (const exp::Figure& fig : exp::paper_figures()) {
    const exp::AbTestResult view = result.select(fig.groups);
    const std::string base = (data_dir / fig.csv).string();
    if (!exp::dump_metric_csv(base + ".csv", view, fig.metric) ||
        !exp::dump_metric_per_day_csv(base + "_per_day.csv", view,
                                      fig.metric)) {
      std::fprintf(stderr, "could not write %s.csv\n", base.c_str());
      return 1;
    }
  }
  return obs_scope.finish() && held == claims.size() ? 0 : 1;
}
