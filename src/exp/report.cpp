#include "exp/report.hpp"

#include <cstdio>

#include "stats/descriptive.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace bba::exp {

MetricDef rebuffers_per_hour_metric() {
  return {"rebuffers/playhour",
          [](const WindowMetrics& m) { return m.rebuffers_per_hour(); }};
}

MetricDef avg_rate_kbps_metric() {
  return {"avg video rate (kb/s)",
          [](const WindowMetrics& m) { return util::to_kbps(m.avg_rate_bps); }};
}

MetricDef startup_rate_kbps_metric() {
  return {"startup video rate (kb/s)", [](const WindowMetrics& m) {
            return util::to_kbps(m.startup_rate_bps);
          }};
}

MetricDef steady_rate_kbps_metric() {
  return {"steady-state video rate (kb/s)", [](const WindowMetrics& m) {
            return util::to_kbps(m.steady_rate_bps);
          }};
}

MetricDef switches_per_hour_metric() {
  return {"switches/playhour",
          [](const WindowMetrics& m) { return m.switches_per_hour(); }};
}

std::string absolute_by_window(const AbTestResult& result,
                               const MetricDef& metric) {
  std::vector<std::string> header{"window(GMT)", "peak"};
  for (const auto& name : result.group_names) header.push_back(name);
  util::Table table(std::move(header));
  for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
    std::vector<std::string> row{window_label(w),
                                 is_peak_window(w) ? "*" : ""};
    for (std::size_t g = 0; g < result.num_groups(); ++g) {
      const double value = metric.get(result.merged(g, w));
      const auto days = result.per_day(g, w, metric.get);
      row.push_back(util::format("%.2f +/-%.2f", value,
                                 stats::stddev(days)));
    }
    table.add_row(std::move(row));
  }
  return metric.name +
         " by two-hour window (merged over days, +/- day stddev):\n" +
         table.to_string();
}

std::string normalized_by_window(const AbTestResult& result,
                                 const MetricDef& metric,
                                 const std::string& baseline_group) {
  const std::size_t base = result.group_index(baseline_group);
  std::vector<std::string> header{"window(GMT)", "peak"};
  for (const auto& name : result.group_names) {
    header.push_back(name + "/" + baseline_group);
  }
  util::Table table(std::move(header));
  for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
    const double base_value = metric.get(result.merged(base, w));
    std::vector<std::string> row{window_label(w),
                                 is_peak_window(w) ? "*" : ""};
    for (std::size_t g = 0; g < result.num_groups(); ++g) {
      const double value = metric.get(result.merged(g, w));
      row.push_back(base_value > 0.0
                        ? util::format("%.0f%%", 100.0 * value / base_value)
                        : "n/a");
    }
    table.add_row(std::move(row));
  }
  return metric.name + " normalized to " + baseline_group +
         " per window:\n" + table.to_string();
}

std::string delta_by_window(const AbTestResult& result,
                            const MetricDef& metric,
                            const std::string& baseline_group) {
  const std::size_t base = result.group_index(baseline_group);
  std::vector<std::string> header{"window(GMT)", "peak"};
  for (std::size_t g = 0; g < result.num_groups(); ++g) {
    if (g == base) continue;
    header.push_back(baseline_group + " - " + result.group_names[g]);
  }
  util::Table table(std::move(header));
  for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
    const double base_value = metric.get(result.merged(base, w));
    std::vector<std::string> row{window_label(w),
                                 is_peak_window(w) ? "*" : ""};
    for (std::size_t g = 0; g < result.num_groups(); ++g) {
      if (g == base) continue;
      row.push_back(
          util::format("%+.0f", base_value - metric.get(result.merged(g, w))));
    }
    table.add_row(std::move(row));
  }
  return metric.name + ": " + baseline_group +
         " minus each group, per window:\n" + table.to_string();
}

namespace {

/// Play-hours-weighted mean over (optionally peak-only) windows of an
/// arbitrary per-window value.
double weighted_window_mean(
    const AbTestResult& result, std::size_t weight_group, bool peak_only,
    const std::function<double(std::size_t window)>& value) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
    if (peak_only && !is_peak_window(w)) continue;
    const double hours = result.merged(weight_group, w).play_hours;
    num += value(w) * hours;
    den += hours;
  }
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

double mean_normalized(const AbTestResult& result, const MetricDef& metric,
                       const std::string& group,
                       const std::string& baseline_group, bool peak_only) {
  // Ratio of play-hour-weighted totals, not a mean of per-window ratios:
  // quiet windows with near-zero baselines would otherwise dominate as
  // noise.
  const std::size_t g = result.group_index(group);
  const std::size_t base = result.group_index(baseline_group);
  double group_total = 0.0;
  double base_total = 0.0;
  for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
    if (peak_only && !is_peak_window(w)) continue;
    const WindowMetrics gm = result.merged(g, w);
    const WindowMetrics bm = result.merged(base, w);
    group_total += metric.get(gm) * gm.play_hours;
    base_total += metric.get(bm) * bm.play_hours;
  }
  return base_total > 0.0 ? group_total / base_total : 1.0;
}

double mean_delta(const AbTestResult& result, const MetricDef& metric,
                  const std::string& group, const std::string& baseline_group,
                  bool peak_only) {
  const std::size_t g = result.group_index(group);
  const std::size_t base = result.group_index(baseline_group);
  return weighted_window_mean(result, base, peak_only, [&](std::size_t w) {
    return metric.get(result.merged(base, w)) -
           metric.get(result.merged(g, w));
  });
}

stats::BootstrapCi normalized_ci(const AbTestResult& result,
                                 const MetricDef& metric,
                                 const std::string& group,
                                 const std::string& baseline_group,
                                 std::uint64_t seed, double confidence) {
  const std::size_t g = result.group_index(group);
  const std::size_t base = result.group_index(baseline_group);
  std::vector<double> num;
  std::vector<double> den;
  for (std::size_t d = 0; d < result.num_days(); ++d) {
    for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
      const WindowMetrics& gm = result.cells[g][d][w];
      const WindowMetrics& bm = result.cells[base][d][w];
      num.push_back(metric.get(gm) * gm.play_hours);
      den.push_back(metric.get(bm) * bm.play_hours);
    }
  }
  util::Rng rng(seed);
  return stats::bootstrap_ratio_of_sums_ci(num, den, rng, 2000, confidence);
}

bool shape_check(bool ok, const std::string& description) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", description.c_str());
  return ok;
}

}  // namespace bba::exp
