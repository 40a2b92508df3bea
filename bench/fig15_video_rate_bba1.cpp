// Fig. 15: video rate of BBA-1 vs BBA-0 vs Control.
//
// Paper shape: BBA-1 improves on BBA-0 by 40-70 kb/s (right-sized
// reservoir) but remains 50-120 kb/s below Control -- the rest of the gap
// is the conservative startup, fixed by BBA-2.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 15: video rate, BBA-1 vs BBA-0 vs Control",
                "BBA-1 recovers 40-70 kb/s over BBA-0, still 50-120 kb/s "
                "below Control (startup gap).");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "bba0", "bba1"});
  const auto metric = exp::avg_rate_kbps_metric();

  exp::print_absolute_by_window(result, metric);
  std::printf("\n");
  exp::print_delta_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig15_video_rate");

  const double d_bba0 =
      exp::mean_delta(result, metric, "bba0", "control", false);
  const double d_bba1 =
      exp::mean_delta(result, metric, "bba1", "control", false);
  std::printf("\nControl - BBA-0: %.0f kb/s; Control - BBA-1: %.0f kb/s; "
              "BBA-1 gain over BBA-0: %.0f kb/s\n",
              d_bba0, d_bba1, d_bba0 - d_bba1);

  // Startup conservatism: BBA-1's delivered rate over the first minutes is
  // far below Control's (paper: ~700 kb/s over the first 60 s).
  const auto startup = exp::startup_rate_kbps_metric();
  const double d_startup =
      exp::mean_delta(result, startup, "bba1", "control", false);
  std::printf("Control - BBA-1 over the first 2 min: %.0f kb/s "
              "(paper: ~700 kb/s over the first 60 s)\n",
              d_startup);

  bool ok = true;
  ok &= exp::shape_check(d_bba0 - d_bba1 > 15.0,
                         "BBA-1 delivers a higher rate than BBA-0 "
                         "(paper: +40-70 kb/s)");
  ok &= exp::shape_check(d_bba1 > 0.0,
                         "BBA-1 still trails Control (paper: 50-120 kb/s)");
  ok &= exp::shape_check(d_startup > 200.0,
                         "the remaining gap is concentrated in the startup "
                         "phase");
  return bench::verdict(ok);
}
