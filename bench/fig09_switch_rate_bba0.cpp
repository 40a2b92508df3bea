// Fig. 9: video switching rate of BBA-0 vs Control, normalized to Control
// per two-hour window.
//
// Paper shape: Algorithm 1's barrier hysteresis cuts the switching rate by
// ~60% at peak and ~50% off-peak.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 9: switching rate, BBA-0 vs Control (normalized)",
                "BBA-0 switches ~40-60% as often as Control.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "bba0"});
  const auto metric = exp::switches_per_hour_metric();

  exp::print_absolute_by_window(result, metric);
  std::printf("\n");
  exp::print_normalized_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig09_switch_rate");

  const double ratio_all =
      exp::mean_normalized(result, metric, "bba0", "control", false);
  const double ratio_peak =
      exp::mean_normalized(result, metric, "bba0", "control", true);
  std::printf("\nBBA-0/Control switch ratio: %.2f overall, %.2f at peak\n",
              ratio_all, ratio_peak);

  bool ok = true;
  ok &= exp::shape_check(ratio_all >= 0.25 && ratio_all <= 0.85,
                         "BBA-0 switches roughly half as often as Control");
  ok &= exp::shape_check(ratio_peak < 1.0,
                         "the reduction holds during peak hours");
  return bench::verdict(ok);
}
