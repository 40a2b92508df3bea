// Fig. 24: rebuffers per playhour with BBA-Others.
//
// Paper shape: down-switch behaviour is untouched by the smoothing, so
// BBA-Others keeps the full rebuffer improvement -- 20-30% below Control.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 24: rebuffers/playhour with BBA-Others",
                "BBA-Others rebuffers 20-30% less than Control.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "rmin-always", "bba-others"});
  const auto metric = exp::rebuffers_per_hour_metric();

  std::printf("--- Fig. 24(a) ---\n");
  exp::print_absolute_by_window(result, metric);
  std::printf("\n--- Fig. 24(b) ---\n");
  exp::print_normalized_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig24_rebuffers");

  const double r_all = exp::mean_normalized(result, metric, "bba-others",
                                            "control", false);
  const double r_peak =
      exp::mean_normalized(result, metric, "bba-others", "control", true);
  const double floor_all =
      exp::mean_normalized(result, metric, "rmin-always", "control", false);
  std::printf("\nBBA-Others/Control: %.2f overall, %.2f at peak; "
              "floor/Control: %.2f\n",
              r_all, r_peak, floor_all);

  bool ok = true;
  ok &= exp::shape_check(r_all >= 0.5 && r_all <= 0.9,
                         "BBA-Others rebuffers 10-30%+ below Control "
                         "(paper: 20-30%)");
  ok &= exp::shape_check(r_peak < 1.0, "the improvement holds at peak");
  ok &= exp::shape_check(r_all <= floor_all + 0.25,
                         "BBA-Others tracks the Rmin-Always floor");
  return bench::verdict(ok);
}
