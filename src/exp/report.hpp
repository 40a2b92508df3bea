// Figure-style reporting over A/B test results.
//
// The paper's evaluation figures are all of three shapes:
//   * absolute metric per two-hour window per group (Figs. 7a, 14a, 19a,
//     24a, 22);
//   * metric normalized to the Control group's window average (Figs. 7b,
//     9, 14b, 19b, 24b);
//   * video-rate delta vs Control in kb/s (Figs. 8, 15, 17, 18, 23).
// These helpers render each shape as aligned rows (with day-to-day standard
// deviation as the error bar) and expose the scalar summaries the paper's
// claims are judged on (exp/claims.hpp).
#pragma once

#include <functional>
#include <string>

#include "exp/abtest.hpp"
#include "stats/bootstrap.hpp"

namespace bba::exp {

/// A named accessor over a window cell.
struct MetricDef {
  std::string name;  ///< e.g. "rebuffers/playhour"
  std::function<double(const WindowMetrics&)> get;
};

MetricDef rebuffers_per_hour_metric();
MetricDef avg_rate_kbps_metric();
MetricDef startup_rate_kbps_metric();
MetricDef steady_rate_kbps_metric();
MetricDef switches_per_hour_metric();

/// One row per window: the metric for every group (merged over days)
/// with +/- day-to-day standard deviation, and a "peak" marker on the USA
/// peak-viewing windows. Returns the caption line and the aligned table.
std::string absolute_by_window(const AbTestResult& result,
                               const MetricDef& metric);

/// One row per window: each group's metric divided by `baseline_group`'s
/// metric in the same window (the paper's "normalized to the average of
/// Control in each two-hour period").
std::string normalized_by_window(const AbTestResult& result,
                                 const MetricDef& metric,
                                 const std::string& baseline_group);

/// One row per window: baseline minus group, in the metric's units (used
/// with the rate metrics, matching the paper's "difference in the
/// delivered video rate" axes).
std::string delta_by_window(const AbTestResult& result,
                            const MetricDef& metric,
                            const std::string& baseline_group);

/// Play-hours-weighted mean over windows of group/baseline ratios.
/// `peak_only` restricts to the USA peak windows.
double mean_normalized(const AbTestResult& result, const MetricDef& metric,
                       const std::string& group,
                       const std::string& baseline_group, bool peak_only);

/// Play-hours-weighted mean over windows of (baseline - group).
double mean_delta(const AbTestResult& result, const MetricDef& metric,
                  const std::string& group, const std::string& baseline_group,
                  bool peak_only);

/// Bootstrap confidence interval for the group/baseline ratio of
/// play-hour-weighted totals, resampling (day, window) cells jointly.
/// Deterministic in `seed`.
stats::BootstrapCi normalized_ci(const AbTestResult& result,
                                 const MetricDef& metric,
                                 const std::string& group,
                                 const std::string& baseline_group,
                                 std::uint64_t seed = 7,
                                 double confidence = 0.95);

/// Simple PASS/FAIL shape-check line used by every bench harness; returns
/// `ok` so callers can aggregate an exit code.
bool shape_check(bool ok, const std::string& description);

}  // namespace bba::exp
