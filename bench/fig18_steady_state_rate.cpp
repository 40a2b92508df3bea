// Fig. 18: steady-state video rate (excluding the first two minutes of
// each session), BBA-2 vs Control.
//
// Paper shape: in steady state BBA-2 delivers a mostly HIGHER rate than
// Control -- the buffer-based approach utilizes capacity better once the
// buffer carries information (Sec. 3's average-rate-maximization result).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Fig. 18: steady-state video rate (after 2 min), BBA-2 vs "
                "Control",
                "BBA-2's steady-state rate is mostly higher than "
                "Control's.");

  const exp::AbTestResult result =
      bench::run_standard_groups(cfg, {"control", "bba2"});
  const auto metric = exp::steady_rate_kbps_metric();

  exp::print_absolute_by_window(result, metric);
  std::printf("\n");
  exp::print_delta_by_window(result, metric, "control");

  bench::dump_figure(result, metric, "fig18_steady_rate");

  const double delta =
      exp::mean_delta(result, metric, "bba2", "control", false);
  int windows_higher = 0;
  for (std::size_t w = 0; w < exp::kWindowsPerDay; ++w) {
    const double control =
        metric.get(result.merged(result.group_index("control"), w));
    const double bba2 =
        metric.get(result.merged(result.group_index("bba2"), w));
    if (bba2 > control) ++windows_higher;
  }
  std::printf("\nBBA-2 - Control steady-state: %.0f kb/s; BBA-2 higher in "
              "%d/12 windows\n",
              -delta, windows_higher);

  bool ok = true;
  ok &= exp::shape_check(delta < 0.0,
                         "BBA-2's steady-state rate exceeds Control's on "
                         "average");
  ok &= exp::shape_check(windows_higher >= 7,
                         "BBA-2 is higher in most two-hour windows");
  return bench::verdict(ok);
}
