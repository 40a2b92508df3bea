// Plot-ready CSV export of A/B results.
//
// bba_paper_report prints each A/B figure's human-readable rows; this
// writes the same data as machine-readable CSV (one row per two-hour window, one column per
// group, plus per-day values for error bars) so the paper's plots can be
// regenerated with any plotting tool.
#pragma once

#include <string>

#include "exp/abtest.hpp"
#include "exp/report.hpp"

namespace bba::exp {

/// Writes `metric` per (window, group): columns are
/// window,peak,<group>,... using day-merged values. Returns false on I/O
/// failure.
bool dump_metric_csv(const std::string& path, const AbTestResult& result,
                     const MetricDef& metric);

/// Writes per-day values for error bars: columns are
/// window,day,<group>,... Returns false on I/O failure.
bool dump_metric_per_day_csv(const std::string& path,
                             const AbTestResult& result,
                             const MetricDef& metric);

}  // namespace bba::exp
