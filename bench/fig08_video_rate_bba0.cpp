// Fig. 8: difference in delivered video rate, Control minus BBA-0, per
// two-hour window.
//
// Paper shape: BBA-0 is ~100 kb/s below Control at peak and ~175 kb/s
// off-peak, caused by the oversized fixed reservoir and the R_min-only
// startup.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 8: video-rate delta, Control - BBA-0",
                "BBA-0 delivers ~100 kb/s less at peak, ~175 kb/s less "
                "off-peak.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "bba0"});
  const auto metric = exp::avg_rate_kbps_metric();

  exp::print_absolute_by_window(result, metric);
  std::printf("\n");
  exp::print_delta_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig08_video_rate");

  const double delta_peak =
      exp::mean_delta(result, metric, "bba0", "control", true);
  const double delta_off =
      exp::mean_delta(result, metric, "bba0", "control", false);
  std::printf("\nControl - BBA-0: %.0f kb/s at peak, %.0f kb/s overall\n",
              delta_peak, delta_off);

  bool ok = true;
  ok &= exp::shape_check(delta_off > 30.0 && delta_off < 350.0,
                         "BBA-0 delivers a meaningfully lower average rate "
                         "than Control (paper: 100-175 kb/s)");
  ok &= exp::shape_check(delta_peak > 0.0,
                         "the gap persists during peak hours");
  return bench::verdict(ok);
}
