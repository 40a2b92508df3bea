// Fig. 7: rebuffers per playhour through the day -- Control vs
// R_min-Always vs BBA-0 (absolute, 7a) and normalized to Control per
// two-hour window (7b).
//
// Paper shape: R_min-Always is the empirical floor (the Control-to-floor
// gap suggests 20-30% of rebuffers are unnecessary); BBA-0 sits 10-30%
// below Control, tracking the floor closely off-peak and lagging it at
// peak.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 7: rebuffers/playhour, Control vs Rmin-Always vs "
                "BBA-0",
                "BBA-0 cuts rebuffers 10-30% below Control; Rmin-Always is "
                "the floor.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "rmin-always", "bba0"});
  const auto metric = exp::rebuffers_per_hour_metric();

  std::printf("--- Fig. 7(a) ---\n");
  exp::print_absolute_by_window(result, metric);
  std::printf("\n--- Fig. 7(b) ---\n");
  exp::print_normalized_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig07_rebuffers");

  const double bba0_all =
      exp::mean_normalized(result, metric, "bba0", "control", false);
  const double bba0_peak =
      exp::mean_normalized(result, metric, "bba0", "control", true);
  const double floor_all =
      exp::mean_normalized(result, metric, "rmin-always", "control", false);
  std::printf("\nBBA-0/Control: %.2f overall, %.2f at peak; floor/Control: "
              "%.2f\n",
              bba0_all, bba0_peak, floor_all);
  const stats::BootstrapCi ci =
      exp::normalized_ci(result, metric, "bba0", "control");
  std::printf("bootstrap 95%% CI for BBA-0/Control: [%.2f, %.2f]\n", ci.lo,
              ci.hi);

  bool ok = true;
  ok &= exp::shape_check(bba0_all >= 0.55 && bba0_all <= 0.95,
                         "BBA-0 rebuffers 10-30%+ below Control overall");
  ok &= exp::shape_check(bba0_peak < 1.0,
                         "BBA-0 beats Control during peak hours");
  ok &= exp::shape_check(floor_all >= 0.5 && floor_all <= 0.9,
                         "Control-to-floor gap: 20-30% of Control's "
                         "rebuffers look unnecessary (paper Sec. 4.2)");
  ok &= exp::shape_check(floor_all <= bba0_all + 0.05,
                         "Rmin-Always approximates the lower bound");
  ok &= exp::shape_check(ci.hi < 1.0,
                         "the rebuffer reduction is statistically solid "
                         "(bootstrap 95% CI entirely below 1)");
  return bench::verdict(ok);
}
