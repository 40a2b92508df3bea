// Ablation: the Sec. 2.2 dilemma inside the Control design.
//
// The paper argues that no buffer-occupancy adjustment F(B) on top of a
// capacity estimate can be simultaneously aggressive and safe when
// throughput is highly variable: a conservative F wastes rate, an
// aggressive F rebuffers. This bench sweeps Control's F(0) and estimator
// window over the identical session set and shows the frontier -- and that
// BBA-2 sits beyond it (fewer rebuffers at an equal-or-better rate than
// every Control variant on at least one axis).
#include <memory>

#include "abr/control.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace bba;

exp::AbrFactory control_variant(double f_empty, std::size_t window) {
  return [=] {
    abr::ControlConfig cfg;
    cfg.f_at_empty = f_empty;
    cfg.estimator_window = window;
    return std::make_unique<abr::ControlAbr>(cfg);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const exp::AbTestConfig cfg = bench::standard_config(argc, argv);
  bench::banner("Ablation: Control's adjustment function and estimator",
                "Sweeping F(0) and the estimator window traces the "
                "aggressive/conservative frontier of Fig. 3 designs "
                "(Sec. 2.2); the buffer-based BBA-2 is off that frontier.");

  std::vector<exp::Group> groups = {
      {"control(F0=0.20,w5)", control_variant(0.20, 5)},
      {"control(F0=0.35,w5)", control_variant(0.35, 5)},
      {"control(F0=0.60,w5)", control_variant(0.60, 5)},
      {"control(F0=0.90,w5)", control_variant(0.90, 5)},
      {"control(F0=0.35,w2)", control_variant(0.35, 2)},
      {"control(F0=0.35,w12)", control_variant(0.35, 12)},
      {"bba2", exp::make_bba2_factory()},
  };
  const exp::AbTestResult result = exp::run_ab_test(
      groups, bench::standard_library(), cfg);

  util::Table table({"variant", "rebuf/hr", "avg kb/s"});
  std::vector<double> rebufs, rates;
  for (std::size_t g = 0; g < result.num_groups(); ++g) {
    exp::WindowMetrics total;
    double rate_hours = 0.0;
    for (std::size_t w = 0; w < exp::kWindowsPerDay; ++w) {
      const exp::WindowMetrics m = result.merged(g, w);
      total.play_hours += m.play_hours;
      total.rebuffer_count += m.rebuffer_count;
      rate_hours += m.avg_rate_bps * m.play_hours;
    }
    const double rb = total.rebuffers_per_hour();
    const double rate = util::to_kbps(rate_hours / total.play_hours);
    rebufs.push_back(rb);
    rates.push_back(rate);
    table.add_row({result.group_names[g], util::format("%.2f", rb),
                   util::format("%.0f", rate)});
  }
  table.print();

  bool ok = true;
  // The frontier: a more aggressive F(0) must buy rate and cost rebuffers.
  ok &= exp::shape_check(rebufs[3] > rebufs[0],
                         "aggressive F(0)=0.9 rebuffers more than "
                         "conservative F(0)=0.2");
  ok &= exp::shape_check(rates[3] > rates[0],
                         "...but delivers a higher average rate (the "
                         "Sec. 2.2 trade-off)");
  // BBA-2 dominates at least the mid-frontier point.
  const std::size_t bba2 = result.num_groups() - 1;
  ok &= exp::shape_check(rebufs[bba2] < rebufs[1] &&
                             rates[bba2] > rates[1] - 100.0,
                         "BBA-2 rebuffers less than the deployed Control "
                         "at a comparable rate (off the frontier)");
  return bench::verdict(ok);
}
