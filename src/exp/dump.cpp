#include "exp/dump.hpp"

#include "util/csv.hpp"
#include "util/table.hpp"

namespace bba::exp {

bool dump_metric_csv(const std::string& path, const AbTestResult& result,
                     const MetricDef& metric) {
  util::CsvWriter out(path);
  if (!out.ok()) return false;
  out.comment(metric.name + " per two-hour window (merged over days)");
  std::vector<std::string> header{"window", "peak"};
  for (const auto& name : result.group_names) header.push_back(name);
  out.row(header);
  for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
    std::vector<std::string> row{window_label(w),
                                 is_peak_window(w) ? "1" : "0"};
    for (std::size_t g = 0; g < result.num_groups(); ++g) {
      row.push_back(util::format("%.6g", metric.get(result.merged(g, w))));
    }
    out.row(row);
  }
  return out.close();
}

bool dump_metric_per_day_csv(const std::string& path,
                             const AbTestResult& result,
                             const MetricDef& metric) {
  util::CsvWriter out(path);
  if (!out.ok()) return false;
  out.comment(metric.name + " per (window, day)");
  std::vector<std::string> header{"window", "day"};
  for (const auto& name : result.group_names) header.push_back(name);
  out.row(header);
  for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
    for (std::size_t d = 0; d < result.num_days(); ++d) {
      std::vector<std::string> row{window_label(w),
                                   util::format("%zu", d)};
      for (std::size_t g = 0; g < result.num_groups(); ++g) {
        row.push_back(
            util::format("%.6g", metric.get(result.cells[g][d][w])));
      }
      out.row(row);
    }
  }
  return out.close();
}

}  // namespace bba::exp
