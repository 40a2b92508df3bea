// bba_obs: render the fleet telemetry artifacts (--timeline-out, schema
// "bba.timeline.v1"; --alerts-out, schema "bba.alerts.v1") as the
// paper-style dashboard.
//
//   bba_obs timeline FILE [--csv]
//       Hour-of-day rebuffer-rate / video-rate curves per group (days
//       merged per window), ASCII bars; --csv emits the raw per-cell rows.
//   bba_obs summary FILE
//       p10/p50/p90/p99 of video rate, startup delay, and buffer occupancy
//       per group, from the mergeable quantile sketches (<= ~1.6% relative
//       error per value; see docs/observability.md).
//   bba_obs diff A FILE B FILE ... (positional: bba_obs diff A.json B.json)
//       Control-normalized deltas between two runs: per-(day,window)
//       baseline-normalized ratios as samples, Welch t-test + CI per group
//       and metric (the harness's existing CI machinery). Cells with no
//       sessions or an undefined baseline carry no sample; the skipA/skipB
//       columns count them per row so sparse artifacts are visible.
//   bba_obs health FILE
//       Per-group health report over a bba.alerts.v1 artifact: alert
//       tallies by detector, SLO burn attainment, a per-window alert
//       activity sparkline, and the detector timeline (docs/monitoring.md).
//   bba_obs monitor --follow FILE [--once]
//       Tails a bbackpt checkpoint: one status line per save (fold cursor,
//       alerts fired, last alert). --once prints the current state and
//       exits; without it the tail ends when the run completes.
//
// A timeline reads back into the writer's own obs::TimelineAggregator
// (obs::load_timeline, obs/timeline.hpp); the dashboard arithmetic over its
// cells is tools/obs_artifact.hpp. The alerts model and its parser are
// tools/alerts_artifact.hpp, reading the header's spec into
// obs::MonitorSpec. Both readers accept exactly what their writer emits:
// a malformed artifact is a one-line diagnostic and exit 1. Numeric flags
// go through the one number rule with the tools/cli_parse.hpp bounds --
// "--confidence pony" is a usage error (exit 2), not a silent 0.0.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "alerts_artifact.hpp"
#include "cli_parse.hpp"
#include "exp/checkpoint.hpp"
#include "obs/timeline.hpp"
#include "obs_artifact.hpp"
#include "stats/sketch.hpp"
#include "stats/ttest.hpp"

namespace {

using bba::obs::TimelineAggregator;
using bba::obs::TimelineCell;
using bba::stats::QuantileSketch;
using bba::tools::AlertData;
using bba::tools::AlertsArtifact;
using bba::tools::load_alerts;
using bba::tools::merged_by_window;
using bba::tools::normalized_samples;
using bba::tools::play_h;
using bba::tools::rate_kbps;
using bba::tools::rebuf_per_hour;

/// Reads a timeline artifact, or prints why not.
bool load_timeline(const std::string& path, TimelineAggregator* out) {
  std::string error;
  if (bba::obs::load_timeline(path, out, &error)) return true;
  std::fprintf(stderr, "bba_obs: %s\n", error.c_str());
  return false;
}

/// Sessions over the whole grid.
std::uint64_t fleet_sessions(const TimelineAggregator& a) {
  std::uint64_t n = 0;
  for (std::size_t g = 0; g < a.num_groups(); ++g) {
    n += a.group_total(g).sessions;
  }
  return n;
}

// ---------------------------------------------------------------------------
// timeline: hour-of-day view
// ---------------------------------------------------------------------------

void window_label(std::size_t window, std::size_t windows_per_day,
                  char* buf, std::size_t n) {
  const double hours_per_window = 24.0 / static_cast<double>(windows_per_day);
  const int lo = static_cast<int>(hours_per_window *
                                  static_cast<double>(window));
  const int hi =
      static_cast<int>(hours_per_window * static_cast<double>(window + 1));
  std::snprintf(buf, n, "%02d-%02dh", lo, hi);
}

int cmd_timeline(const std::string& path, bool csv) {
  TimelineAggregator a;
  if (!load_timeline(path, &a)) return 1;
  const std::size_t days = a.days(), windows = a.windows_per_day(),
                    groups = a.num_groups();
  const std::vector<std::string>& names = a.group_names();

  if (csv) {
    std::printf(
        "day,window,group,sessions,abandoned,rebuffers,fault_stalls,"
        "switches,play_hours,rebuffer_s,join_s,rebuf_per_hour,rate_kbps\n");
    for (std::size_t d = 0; d < days; ++d) {
      for (std::size_t w = 0; w < windows; ++w) {
        for (std::size_t g = 0; g < groups; ++g) {
          const TimelineCell& c = a.cell(d, w, g);
          if (c.empty()) continue;
          std::printf("%zu,%zu,%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                      ",%" PRIu64 ",%" PRIu64 ",%.6f,%.6f,%.6f,%.6f,%.3f\n",
                      d, w, names[g].c_str(), c.sessions, c.abandoned,
                      c.rebuffers, c.fault_stalls, c.switches, play_h(c),
                      static_cast<double>(c.rebuffer_micro) * 1e-6,
                      static_cast<double>(c.join_micro) * 1e-6,
                      rebuf_per_hour(c), rate_kbps(c));
        }
      }
    }
    return 0;
  }

  if (fleet_sessions(a) == 0) {
    // A valid but empty artifact (zero cells): a table of zeros reads
    // like a measurement, so say what happened instead.
    std::printf("fleet timeline %s: no sessions recorded (empty artifact)\n",
                path.c_str());
    return 0;
  }
  const std::vector<TimelineCell> by_window = merged_by_window(a);
  double max_rebuf_ph = 0.0;
  for (const TimelineCell& c : by_window) {
    if (rebuf_per_hour(c) > max_rebuf_ph) max_rebuf_ph = rebuf_per_hour(c);
  }

  std::printf("fleet timeline %s: seed %" PRIu64 ", %zu day%s x %zu "
              "windows\n",
              path.c_str(), a.seed(), days, days == 1 ? "" : "s", windows);
  for (std::size_t g = 0; g < groups; ++g) {
    const TimelineCell t = a.group_total(g);
    std::printf("\ngroup %s: %" PRIu64 " sessions, %.1f play-hours, "
                "%.3f rebuf/ph, %.0f kb/s\n",
                names[g].c_str(), t.sessions, play_h(t), rebuf_per_hour(t),
                rate_kbps(t));
    std::printf("  %-7s %8s %8s %9s %10s  %s\n", "window", "sessions",
                "play_h", "rebuf/ph", "rate_kbps", "rebuf/ph bar");
    for (std::size_t w = 0; w < windows; ++w) {
      const TimelineCell& c = by_window[w * groups + g];
      char label[16];
      window_label(w, windows, label, sizeof label);
      constexpr int kBarWidth = 24;
      int bar = 0;
      if (max_rebuf_ph > 0.0) {
        bar = static_cast<int>(rebuf_per_hour(c) / max_rebuf_ph * kBarWidth +
                               0.5);
      }
      std::printf("  %-7s %8" PRIu64 " %8.2f %9.3f %10.0f  %.*s\n", label,
                  c.sessions, play_h(c), rebuf_per_hour(c), rate_kbps(c), bar,
                  "########################");
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// summary: sketch percentiles
// ---------------------------------------------------------------------------

int cmd_summary(const std::string& path) {
  TimelineAggregator a;
  if (!load_timeline(path, &a)) return 1;
  if (fleet_sessions(a) == 0) {
    std::printf("fleet summary %s: no sessions recorded (empty artifact)\n",
                path.c_str());
    return 0;
  }
  std::printf("fleet summary %s: seed %" PRIu64 " (sketch quantiles, "
              "<=1.6%% relative error)\n",
              path.c_str(), a.seed());
  for (std::size_t g = 0; g < a.num_groups(); ++g) {
    const std::uint64_t sessions = a.group_total(g).sessions;
    std::printf("\ngroup %s: %" PRIu64 " sessions\n",
                a.group_names()[g].c_str(), sessions);
    if (sessions == 0) {
      // Empty sketches would render as p10..p99 = 0 -- a fabricated
      // measurement, not an observation.
      std::printf("  (no sessions; quantiles omitted)\n");
      continue;
    }
    std::printf("  %-10s %12s %12s %12s %12s\n", "metric", "p10", "p50",
                "p90", "p99");
    for (std::size_t m = 0; m < bba::obs::kNumTimelineSketches; ++m) {
      const QuantileSketch& sk = a.sketches(g).at(m);
      std::printf("  %-10s %12.6g %12.6g %12.6g %12.6g\n",
                  bba::obs::kTimelineSketchNames[m], sk.quantile(0.10),
                  sk.quantile(0.50), sk.quantile(0.90), sk.quantile(0.99));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// diff: Control-normalized deltas between two runs
// ---------------------------------------------------------------------------

int cmd_diff(const std::string& path_a, const std::string& path_b,
             const std::string& baseline_name, double confidence) {
  TimelineAggregator a, b;
  if (!load_timeline(path_a, &a) || !load_timeline(path_b, &b)) return 1;
  const std::vector<std::string>& groups = a.group_names();
  if (groups != b.group_names()) {
    std::fprintf(stderr, "bba_obs: group sets differ between %s and %s\n",
                 path_a.c_str(), path_b.c_str());
    return 1;
  }
  std::size_t baseline = 0;
  if (!baseline_name.empty()) {
    baseline = groups.size();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g] == baseline_name) baseline = g;
    }
    if (baseline == groups.size()) {
      std::fprintf(stderr, "bba_obs: unknown baseline group %s\n",
                   baseline_name.c_str());
      return 1;
    }
  }

  struct Metric {
    const char* name;
    double (*get)(const TimelineCell&);
  };
  const Metric metrics[] = {{"rebuf/ph", &rebuf_per_hour},
                            {"rate_kbps", &rate_kbps}};

  std::printf("fleet diff: A=%s (seed %" PRIu64 ")  B=%s (seed %" PRIu64
              ")\n",
              path_a.c_str(), a.seed(), path_b.c_str(), b.seed());
  std::printf("baseline group: %s; samples are per-(day,window) ratios vs "
              "baseline; Welch t-test at %.0f%% confidence\n",
              groups[baseline].c_str(), confidence * 100.0);
  std::printf("skipA/skipB count grid cells with no sample on that side "
              "(no sessions, or an undefined baseline value)\n");
  std::printf("%-12s %-10s %6s %6s %6s %6s %10s %10s %10s %22s %8s\n",
              "group", "metric", "nA", "skipA", "nB", "skipB", "A/base",
              "B/base", "delta", "CI", "p");
  std::size_t total_skipped = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (g == baseline) continue;
    for (const Metric& m : metrics) {
      std::size_t skip_a = 0, skip_b = 0;
      const std::vector<double> sa =
          normalized_samples(a, g, baseline, m.get, &skip_a);
      const std::vector<double> sb =
          normalized_samples(b, g, baseline, m.get, &skip_b);
      total_skipped += skip_a + skip_b;
      if (sa.size() < 2 || sb.size() < 2) {
        std::printf("%-12s %-10s %6zu %6zu %6zu %6zu  (too few defined "
                    "cells for a test)\n",
                    groups[g].c_str(), m.name, sa.size(), skip_a, sb.size(),
                    skip_b);
        continue;
      }
      const bba::stats::TTestResult t =
          bba::stats::welch_t_test(sa, sb, confidence);
      char ci[32];
      std::snprintf(ci, sizeof ci, "[%+.4f, %+.4f]", t.ci_lo, t.ci_hi);
      std::printf("%-12s %-10s %6zu %6zu %6zu %6zu %10.4f %10.4f %+10.4f "
                  "%22s %8.3g\n",
                  groups[g].c_str(), m.name, sa.size(), skip_a, sb.size(),
                  skip_b, bba::stats::mean(sa), bba::stats::mean(sb),
                  t.mean_diff, ci, t.p_value);
    }
  }
  std::printf("skipped cells total: %zu\n", total_skipped);
  return 0;
}

// ---------------------------------------------------------------------------
// health: per-group report over the alerts artifact
// ---------------------------------------------------------------------------

int cmd_health(const std::string& path) {
  AlertsArtifact a;
  std::string error;
  if (!load_alerts(path, &a, &error)) {
    std::fprintf(stderr, "bba_obs: %s\n", error.c_str());
    return 1;
  }
  const bba::obs::MonitorSpec& sp = a.spec;
  std::printf("fleet health %s: seed %" PRIu64 ", %zu day%s x %zu windows, "
              "%zu groups\n",
              path.c_str(), a.seed, a.days, a.days == 1 ? "" : "s",
              a.windows, a.groups.size());
  std::printf("detectors: ewma (alpha %g, +/-%gsd), cusum (k %g, h %g), "
              "slo burn (rebuffer_ratio>%g x%" PRIu64 ", join_s>%g x%" PRIu64
              "), warmup %" PRIu64 " cells\n",
              sp.ewma_alpha, sp.ewma_k, sp.cusum_k, sp.cusum_h,
              sp.slo_rebuffer_ratio, sp.slo_rebuffer_windows, sp.slo_join_s,
              sp.slo_join_windows, sp.warmup);
  if (a.alerts.empty()) {
    std::printf("healthy: no alerts fired over %" PRIu64 " non-empty cells\n",
                a.summary_cells);
    return 0;
  }

  const std::size_t grid = a.days * a.windows;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    std::size_t n_ewma = 0, n_cusum = 0, n_slo = 0;
    // Per-(day, window) alert counts for the sparkline, and the windows
    // with at least one SLO burn alert for attainment.
    std::vector<std::size_t> activity(grid, 0);
    std::vector<bool> slo_burned(grid, false);
    for (const AlertData& al : a.alerts) {
      if (al.group != g) continue;
      if (al.kind == "ewma") ++n_ewma;
      if (al.kind == "cusum") ++n_cusum;
      const std::size_t w = al.day * a.windows + al.window;
      if (al.kind == "slo") {
        ++n_slo;
        slo_burned[w] = true;
      }
      ++activity[w];
    }
    std::size_t burned = 0, peak = 0, peak_w = 0;
    for (std::size_t w = 0; w < grid; ++w) {
      if (slo_burned[w]) ++burned;
      if (activity[w] > peak) {
        peak = activity[w];
        peak_w = w;
      }
    }
    std::printf("\ngroup %s: %zu alerts (%zu ewma, %zu cusum, %zu slo)\n",
                a.groups[g].c_str(), n_ewma + n_cusum + n_slo, n_ewma,
                n_cusum, n_slo);
    std::printf("  slo attainment: %.1f%% of windows clear of burn "
                "(%zu of %zu burned)\n",
                100.0 * static_cast<double>(grid - burned) /
                    static_cast<double>(grid),
                burned, grid);
    // Sparkline: one glyph per (day, window), alert count on a 5-level
    // ASCII ramp scaled to this group's peak window.
    std::string spark;
    spark.reserve(grid + a.days);
    constexpr char kRamp[] = " .:*#";
    for (std::size_t w = 0; w < grid; ++w) {
      if (w != 0 && w % a.windows == 0) spark += '|';
      std::size_t level = 0;
      if (peak > 0 && activity[w] > 0) {
        level = 1 + activity[w] * 3 / peak;
        if (level > 4) level = 4;
      }
      spark += kRamp[level];
    }
    std::printf("  activity [%s]", spark.c_str());
    if (peak > 0) {
      std::printf("  peak d%zu w%zu (%zu alerts)", peak_w / a.windows,
                  peak_w % a.windows, peak);
    }
    std::printf("\n");
    std::printf("  timeline:\n");
    for (const AlertData& al : a.alerts) {
      if (al.group != g) continue;
      std::printf("    seq %-4" PRIu64 " d%zu w%-2zu %-5s %-14s", al.seq,
                  al.day, al.window, al.kind.c_str(), al.metric.c_str());
      if (al.kind == "ewma") {
        std::printf(" %-4s value %.6g vs %.6g +/- %.6g\n", al.dir.c_str(),
                    al.value, al.center, al.band);
      } else if (al.kind == "cusum") {
        std::printf(" %-4s value %.6g sum %.6g > h %.6g\n", al.dir.c_str(),
                    al.value, al.sum, al.threshold);
      } else {
        std::printf(" up   value %.6g > slo %.6g for %" PRIu64 " windows\n",
                    al.value, al.threshold, al.streak);
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// monitor: tail a checkpoint's health state
// ---------------------------------------------------------------------------

/// One status line from a loaded checkpoint's ALRT section.
void print_monitor_status(const bba::exp::Checkpoint& ck) {
  const bba::obs::MonitorState& st = ck.alerts;
  const double pct =
      ck.total_keys > 0
          ? 100.0 * static_cast<double>(ck.cursor) /
                static_cast<double>(ck.total_keys)
          : 100.0;
  std::printf("key %llu/%llu (%5.1f%%)  cells consumed %llu  alerts %llu",
              static_cast<unsigned long long>(ck.cursor),
              static_cast<unsigned long long>(ck.total_keys), pct,
              static_cast<unsigned long long>(st.consumed),
              static_cast<unsigned long long>(st.alert_seq));
  if (st.deferred) std::printf("  [deferred: sharded run]");
  if (!st.alert_log.empty()) {
    // Last line of the alert log (it ends with '\n').
    std::size_t start = st.alert_log.rfind('\n', st.alert_log.size() - 2);
    start = start == std::string::npos ? 0 : start + 1;
    std::printf("  last: %.*s",
                static_cast<int>(st.alert_log.size() - 1 - start),
                st.alert_log.c_str() + start);
  }
  std::printf("\n");
  std::fflush(stdout);
}

int cmd_monitor(const std::string& path, bool once) {
  std::time_t last_mtime = 0;
  std::uint64_t last_cursor = 0;
  bool printed = false;
  for (;;) {
    struct stat sb;
    if (stat(path.c_str(), &sb) != 0) {
      if (once) {
        std::fprintf(stderr, "bba_obs: cannot stat %s\n", path.c_str());
        return 1;
      }
      // Not written yet: keep waiting for the first save.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    if (sb.st_mtime != last_mtime || !printed) {
      last_mtime = sb.st_mtime;
      bba::exp::Checkpoint ck;
      std::string error;
      if (!bba::exp::load_checkpoint(path, &ck, &error)) {
        // A save may be mid-rename; only a --once read treats it as fatal.
        if (once) {
          std::fprintf(stderr, "bba_obs: %s\n", error.c_str());
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        continue;
      }
      if (!ck.has_alerts) {
        std::fprintf(stderr,
                     "bba_obs: %s has no health-monitor section (was the "
                     "run started without --alerts-out?)\n",
                     path.c_str());
        return 1;
      }
      if (!printed || ck.cursor != last_cursor) {
        print_monitor_status(ck);
        printed = true;
        last_cursor = ck.cursor;
      }
      if (once || ck.complete()) return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s timeline FILE [--csv]\n"
      "       %s summary FILE\n"
      "       %s diff A.json B.json [--baseline GROUP] [--confidence C]\n"
      "       %s health FILE\n"
      "       %s monitor --follow FILE [--once]\n"
      "Renders bba.timeline.v1 artifacts (bba_abtest/bba_paper_report/\n"
      "bba_session --timeline-out FILE) and bba.alerts.v1 artifacts\n"
      "(--alerts-out FILE).\n"
      "  timeline  hour-of-day session/rebuffer/rate table per group\n"
      "            (--csv: raw per-cell rows)\n"
      "  summary   p10/p50/p90/p99 of rate_bps, join_s, buffer_s per group\n"
      "  diff      Control-normalized per-window deltas between two runs\n"
      "            with Welch confidence intervals; reports how many grid\n"
      "            cells carried no sample\n"
      "  health    per-group alert tallies, SLO burn attainment, activity\n"
      "            sparkline, and detector timeline (docs/monitoring.md)\n"
      "  monitor   tail a bbackpt checkpoint's health state, one status\n"
      "            line per save (--once: print current state and exit)\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") {
    usage(argv[0]);
    return 0;
  }

  if (cmd == "timeline") {
    std::string path;
    bool csv = false;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) {
        csv = true;
      } else if (path.empty()) {
        path = argv[i];
      } else {
        return usage(argv[0]);
      }
    }
    if (path.empty()) return usage(argv[0]);
    return cmd_timeline(path, csv);
  }
  if (cmd == "summary") {
    if (argc != 3) return usage(argv[0]);
    return cmd_summary(argv[2]);
  }
  if (cmd == "diff") {
    std::string path_a, path_b, baseline;
    double confidence = 0.95;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
        baseline = argv[++i];
      } else if (std::strcmp(argv[i], "--confidence") == 0 && i + 1 < argc) {
        const char* v = argv[++i];
        if (!bba::tools::parse_unit_open(v, &confidence)) {
          std::fprintf(stderr,
                       "--confidence: expects a number in (0, 1), got "
                       "'%s'\n",
                       v);
          return 2;
        }
      } else if (path_a.empty()) {
        path_a = argv[i];
      } else if (path_b.empty()) {
        path_b = argv[i];
      } else {
        return usage(argv[0]);
      }
    }
    if (path_a.empty() || path_b.empty()) return usage(argv[0]);
    return cmd_diff(path_a, path_b, baseline, confidence);
  }
  if (cmd == "health") {
    if (argc != 3) return usage(argv[0]);
    return cmd_health(argv[2]);
  }
  if (cmd == "monitor") {
    std::string path;
    bool once = false;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--follow") == 0 && i + 1 < argc) {
        path = argv[++i];
      } else if (std::strcmp(argv[i], "--once") == 0) {
        once = true;
      } else {
        return usage(argv[0]);
      }
    }
    if (path.empty()) return usage(argv[0]);
    return cmd_monitor(path, once);
  }
  return usage(argv[0]);
}
