// Fig. 20: switching rate of BBA-1/BBA-2 vs Control.
//
// Paper shape: after moving from the rate map to the chunk map, BBA-1 and
// BBA-2 switch much MORE often than Control (the Fig. 21 effect plus the
// shifting reservoir) -- motivating BBA-Others.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 20: switching rate, BBA-1/BBA-2 vs Control",
                "The chunk map makes BBA-1/BBA-2 switch more often than "
                "Control.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "bba1", "bba2"});
  const auto metric = exp::switches_per_hour_metric();

  exp::print_absolute_by_window(result, metric);
  std::printf("\n");
  exp::print_normalized_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig20_switch_rate");

  const double r_bba1 =
      exp::mean_normalized(result, metric, "bba1", "control", false);
  const double r_bba2 =
      exp::mean_normalized(result, metric, "bba2", "control", false);
  std::printf("\nswitch ratio vs Control: BBA-1 %.2f, BBA-2 %.2f\n", r_bba1,
              r_bba2);

  bool ok = true;
  ok &= exp::shape_check(r_bba1 > 1.05,
                         "BBA-1 switches more often than Control");
  ok &= exp::shape_check(r_bba2 > 1.05,
                         "BBA-2 switches more often than Control");
  return bench::verdict(ok);
}
