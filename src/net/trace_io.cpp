#include "net/trace_io.hpp"

#include "util/csv.hpp"

namespace bba::net {

bool write_trace_csv(const std::string& path, const CapacityTrace& trace) {
  util::CsvWriter out(path);
  if (!out.ok()) return false;
  out.comment("bba capacity trace: duration_s,rate_bps");
  out.row(std::vector<std::string>{"duration_s", "rate_bps"});
  for (const auto& seg : trace.segments()) {
    out.row(std::vector<double>{seg.duration_s, seg.rate_bps});
  }
  return out.close();
}

std::optional<CapacityTrace> read_trace_csv(const std::string& path,
                                            bool loop) {
  std::vector<util::CsvRow> rows;
  if (!util::read_csv(path, rows, /*expect_header=*/true)) {
    return std::nullopt;
  }
  std::vector<CapacityTrace::Segment> segments;
  segments.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.size() != 2) return std::nullopt;
    double duration = 0.0;
    double rate = 0.0;
    if (!util::parse_num(row[0], &duration) ||
        !util::parse_num(row[1], &rate)) {
      return std::nullopt;
    }
    if (duration <= 0.0 || rate < 0.0) return std::nullopt;
    segments.push_back({duration, rate});
  }
  if (segments.empty()) return std::nullopt;
  return CapacityTrace(std::move(segments), loop);
}

}  // namespace bba::net
