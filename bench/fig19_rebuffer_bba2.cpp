// Fig. 19: rebuffers per playhour with BBA-2.
//
// Paper shape: the risky startup costs BBA-2 slightly more rebuffers than
// BBA-1, but it still maintains a 10-20% improvement over Control at peak.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 19: rebuffers/playhour with BBA-2",
                "Slightly above BBA-1; still 10-20% below Control at "
                "peak.");

  const exp::AbTestResult result = bench::run_standard_groups(
      cfg, {"control", "rmin-always", "bba1", "bba2"});
  const auto metric = exp::rebuffers_per_hour_metric();

  std::printf("--- Fig. 19(a) ---\n");
  exp::print_absolute_by_window(result, metric);
  std::printf("\n--- Fig. 19(b) ---\n");
  exp::print_normalized_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig19_rebuffers");

  const double bba2_all =
      exp::mean_normalized(result, metric, "bba2", "control", false);
  const double bba2_peak =
      exp::mean_normalized(result, metric, "bba2", "control", true);
  const double bba1_all =
      exp::mean_normalized(result, metric, "bba1", "control", false);
  std::printf("\nBBA-2/Control: %.2f overall, %.2f at peak "
              "(BBA-1/Control: %.2f)\n",
              bba2_all, bba2_peak, bba1_all);

  bool ok = true;
  ok &= exp::shape_check(bba2_peak >= 0.5 && bba2_peak <= 0.97,
                         "BBA-2 keeps a rebuffer improvement over Control "
                         "at peak (paper: 10-20%)");
  ok &= exp::shape_check(bba2_all >= bba1_all - 0.02,
                         "the risky startup makes BBA-2 rebuffer at least "
                         "as often as BBA-1");
  return bench::verdict(ok);
}
