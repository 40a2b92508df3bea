// Ablation: which of BBA-1's design ingredients matter?
//
// DESIGN.md calls out three choices in the VBR-aware algorithm: the dynamic
// reservoir (vs BBA-0's fixed 90 s), the reservoir's lower clamp, and the
// Sec. 7.1 outage-protection accrual. This bench streams the identical
// session set with each variant and reports the rebuffer/rate/switch
// trade-off each ingredient buys.
#include <memory>

#include "bench_common.hpp"
#include "core/bba0.hpp"
#include "core/bba1.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace bba;

exp::AbrFactory bba1_variant(double min_reservoir_s, bool outage,
                             double accrual_s) {
  return [=] {
    core::Bba1Config cfg;
    cfg.reservoir.min_s = min_reservoir_s;
    cfg.outage_protection = outage;
    cfg.outage_accrual_s = accrual_s;
    return std::make_unique<core::Bba1>(cfg);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Ablation: BBA-1 design choices",
                "Contribution of the dynamic reservoir clamp and outage "
                "protection to the rebuffer/rate trade-off.");

  std::vector<exp::Group> groups = {
      {"bba0(fixed-90s)", exp::make_bba0_factory()},
      {"bba1(min8,no-outage)", bba1_variant(8.0, false, 0.0)},
      {"bba1(min8,outage.4)", bba1_variant(8.0, true, 0.4)},
      {"bba1(min8,outage.8)", bba1_variant(8.0, true, 0.8)},
      {"bba1(min24,outage.4)", bba1_variant(24.0, true, 0.4)},
      {"bba1(min40,outage.4)", bba1_variant(40.0, true, 0.4)},
      {"rmin-always", exp::make_rmin_factory()},
  };
  const exp::AbTestResult result = exp::run_ab_test(
      groups, bench::standard_library(), cfg);

  util::Table table({"variant", "rebuf/hr", "avg kb/s", "steady kb/s",
                     "switch/hr"});
  for (std::size_t g = 0; g < result.num_groups(); ++g) {
    exp::WindowMetrics total;
    double rate_hours = 0.0, steady_hours = 0.0;
    for (std::size_t w = 0; w < exp::kWindowsPerDay; ++w) {
      const exp::WindowMetrics m = result.merged(g, w);
      total.play_hours += m.play_hours;
      total.rebuffer_count += m.rebuffer_count;
      total.switch_count += m.switch_count;
      rate_hours += m.avg_rate_bps * m.play_hours;
      steady_hours += m.steady_rate_bps * m.play_hours;
    }
    table.add_row({result.group_names[g],
                   util::format("%.2f", total.rebuffers_per_hour()),
                   util::format("%.0f", util::to_kbps(rate_hours /
                                                      total.play_hours)),
                   util::format("%.0f", util::to_kbps(steady_hours /
                                                      total.play_hours)),
                   util::format("%.1f", total.switches_per_hour())});
  }
  table.print();

  bool ok = true;
  const auto rb = exp::rebuffers_per_hour_metric();
  ok &= exp::shape_check(
      exp::mean_normalized(result, rb, "bba1(min8,outage.4)",
                           "bba1(min8,no-outage)", false) < 1.0,
      "outage protection reduces BBA-1's rebuffer rate");
  const auto rate = exp::avg_rate_kbps_metric();
  // mean_delta returns baseline minus group: positive means the dynamic
  // reservoir (baseline) out-delivers the fixed 90 s one.
  ok &= exp::shape_check(
      exp::mean_delta(result, rate, "bba0(fixed-90s)", "bba1(min8,outage.4)",
                      false) > 0.0,
      "dynamic reservoir delivers a higher average rate than the fixed "
      "90 s reservoir");
  return bench::verdict(ok);
}
