// Fig. 22: switching rate of BBA-Others vs Control.
//
// Paper shape: with lookahead smoothing and the right-shift-only chunk
// map, BBA-Others' switching rate becomes almost indistinguishable from
// Control's -- sometimes higher, sometimes lower.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 22: switching rate, BBA-Others vs Control",
                "BBA-Others matches Control's switching rate.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "bba2", "bba-others"});
  const auto metric = exp::switches_per_hour_metric();

  exp::print_absolute_by_window(result, metric);
  std::printf("\n");
  exp::print_normalized_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig22_switch_rate");

  const double r_others =
      exp::mean_normalized(result, metric, "bba-others", "control", false);
  const double r_bba2 =
      exp::mean_normalized(result, metric, "bba2", "control", false);
  std::printf("\nswitch ratio vs Control: BBA-Others %.2f (BBA-2: %.2f)\n",
              r_others, r_bba2);

  bool ok = true;
  ok &= exp::shape_check(r_others > 0.5 && r_others < 1.35,
                         "BBA-Others' switching rate is comparable to "
                         "Control's");
  ok &= exp::shape_check(r_others < r_bba2,
                         "smoothing removes a large share of BBA-2's "
                         "switches");
  return bench::verdict(ok);
}
