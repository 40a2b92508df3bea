// Fig. 17: average video rate of BBA-2 vs BBA-1 vs Control.
//
// Paper shape: with the fast startup ramp, BBA-2's average rate is almost
// indistinguishable from Control's -- confirming that BBA-0/1's rate losses
// were startup conservatism.
#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 17: video rate, BBA-2 vs BBA-1 vs Control",
                "BBA-2's average video rate matches Control's.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "bba1", "bba2"});
  const auto metric = exp::avg_rate_kbps_metric();

  exp::print_absolute_by_window(result, metric);
  std::printf("\n");
  exp::print_delta_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig17_video_rate");

  const double d_bba1 =
      exp::mean_delta(result, metric, "bba1", "control", false);
  const double d_bba2 =
      exp::mean_delta(result, metric, "bba2", "control", false);
  std::printf("\nControl - BBA-1: %.0f kb/s; Control - BBA-2: %.0f kb/s\n",
              d_bba1, d_bba2);

  bool ok = true;
  ok &= exp::shape_check(std::fabs(d_bba2) < 80.0,
                         "BBA-2's average rate is within 80 kb/s of "
                         "Control's (paper: almost indistinguishable)");
  ok &= exp::shape_check(d_bba2 < d_bba1,
                         "BBA-2 closes most of BBA-1's gap to Control");
  return bench::verdict(ok);
}
