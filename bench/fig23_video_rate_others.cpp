// Fig. 23: video rate of BBA-Others vs Control.
//
// Paper shape: almost the same as Control; smoothing trades roughly
// 20-30 kb/s of rate vs BBA-2 (up-switches are taken more conservatively,
// and the chunk map never left-shifts).
#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 23: video rate, BBA-Others vs Control",
                "BBA-Others delivers ~Control's rate, trading ~20-30 kb/s "
                "vs BBA-2.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "bba2", "bba-others"});
  const auto metric = exp::avg_rate_kbps_metric();

  exp::print_absolute_by_window(result, metric);
  std::printf("\n");
  exp::print_delta_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig23_video_rate");

  const double d_others =
      exp::mean_delta(result, metric, "bba-others", "control", false);
  const double d_bba2 =
      exp::mean_delta(result, metric, "bba2", "control", false);
  std::printf("\nControl - BBA-Others: %.0f kb/s; BBA-Others trades "
              "%.0f kb/s vs BBA-2\n",
              d_others, d_others - d_bba2);

  bool ok = true;
  ok &= exp::shape_check(std::fabs(d_others) < 150.0,
                         "BBA-Others' average rate is close to Control's");
  ok &= exp::shape_check(d_others >= d_bba2,
                         "smoothing costs some rate relative to BBA-2");
  return bench::verdict(ok);
}
