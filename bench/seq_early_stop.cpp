// seq_early_stop: fixed-budget vs sequential run on a clearly separated
// arm pair. Emits BENCH_sequential.json (cwd; --out overrides) with a
// sessions/sec row per mode plus the sessions-saved fraction, and PASS/
// FAIL shape checks: the sequential run must stop early, save >= 30% of
// the budget, and pick the same winner the fixed-budget run reports.
//
//   seq_early_stop [--sessions N] [--days N] [--seed S] [--threads N]
//                  [--out PATH]
//
// The pair is Control vs R_min-Always on the rate metric -- the floor
// algorithm streams thousands of kb/s below Control, so elimination
// triggers within a few batches. The saved fraction is a pure function of
// the seed (deterministic at any thread count), so it participates in the
// committed-baseline comparison (tools/bench_compare.py); only the
// timings are exempt.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/abtest.hpp"
#include "exp/report.hpp"
#include "media/video.hpp"
#include "seq/engine.hpp"
#include "util/table.hpp"

namespace {

using namespace bba;

bool check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 30;
  cfg.days = 1;
  std::string out_path = "BENCH_sequential.json";
  bench::read_flags(argc, argv, &cfg,
                    tools::kSessionsFlag | tools::kDaysFlag |
                        tools::kSeedFlag | tools::kThreadsFlag,
                    "          [--out PATH]  (default BENCH_sequential.json)\n",
                    [&](int& i) {
                      if (std::string_view(argv[i]) != "--out") return false;
                      out_path = util::flag_value_or_exit(argc, argv, i);
                      return true;
                    });

  const std::vector<exp::Group> groups = {
      {"control", exp::make_control_factory()},
      {"rmin-always", exp::make_rmin_factory()},
  };
  const media::VideoLibrary& library = media::VideoLibrary::standard(11);
  seq::SeqMetric metric;
  if (!seq::seq_metric_by_name("rate", &metric)) return 1;

  // Fixed-budget reference: the plain harness over the full grid.
  const std::size_t fixed_sessions = groups.size() * cfg.days *
                                     exp::kWindowsPerDay *
                                     cfg.sessions_per_window;
  auto t0 = std::chrono::steady_clock::now();
  const exp::AbTestResult fixed = exp::run_ab_test(groups, library, cfg);
  auto t1 = std::chrono::steady_clock::now();
  const double fixed_s = std::chrono::duration<double>(t1 - t0).count();

  const exp::MetricDef rate = exp::avg_rate_kbps_metric();
  double best = -1.0;
  std::string fixed_winner;
  for (std::size_t g = 0; g < fixed.num_groups(); ++g) {
    double sum = 0.0;
    for (std::size_t w = 0; w < exp::kWindowsPerDay; ++w) {
      sum += rate.get(fixed.merged(g, w));
    }
    if (sum > best) {
      best = sum;
      fixed_winner = fixed.group_names[g];
    }
  }

  // Sequential run with the fixed-budget-equivalent budget.
  seq::SeqConfig sc;
  sc.batch_sessions = cfg.sessions_per_window;
  sc.min_batches = 2;
  t0 = std::chrono::steady_clock::now();
  const seq::SeqResult r =
      seq::run_sequential(groups, library, cfg, metric, sc);
  auto t2 = std::chrono::steady_clock::now();
  const double seq_s = std::chrono::duration<double>(t2 - t0).count();

  std::printf(
      "fixed:      %zu sessions in %.3fs, winner %s\n"
      "sequential: %zu sessions in %.3fs, winner %s (%s after %zu rounds, "
      "%.1f%% saved)\n\n",
      fixed_sessions, fixed_s, fixed_winner.c_str(), r.sessions_used, seq_s,
      r.winner.c_str(), r.verdict.c_str(), r.rounds,
      100.0 * r.saved_fraction());

  bool ok = true;
  ok &= check(r.verdict == "winner", "sequential run identifies a winner");
  ok &= check(r.stopped_early(), "sequential run stops before the budget");
  ok &= check(r.saved_fraction() >= 0.30,
              "sequential run saves >= 30% of the session budget");
  ok &= check(r.winner == fixed_winner,
              "sequential winner matches the fixed-budget winner");

  const std::string json = util::format(
      "{\"bench\":\"sequential\",\"sessions\":%zu,\"results\":["
      "{\"mode\":\"fixed\",\"seconds\":%.4f,\"sessions_per_sec\":%.1f},"
      "{\"mode\":\"sequential\",\"seconds\":%.4f,\"sessions_per_sec\":%.1f,"
      "\"saved_frac\":%.4f}],"
      "\"winner\":\"%s\",\"rounds\":%zu,\"winner_agreement\":%s}\n",
      fixed_sessions, fixed_s, fixed_sessions / fixed_s, seq_s,
      r.sessions_used / seq_s, r.saved_fraction(), r.winner.c_str(),
      r.rounds, r.winner == fixed_winner ? "true" : "false");
  std::printf("%s", json.c_str());
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
