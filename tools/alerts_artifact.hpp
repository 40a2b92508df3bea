// The bba.alerts.v1 artifact model + strict parser, shared by the
// bba_obs CLI (tools/bba_obs_cli.cpp) and its tests
// (tests/test_obs_cli.cpp).
//
// The artifact is this repo's own machine-written JSONL (obs/monitor.cpp):
// one header line, the alert lines in fold order, one summary trailer.
// The parser reads it with util::TextScanner in exactly the writer's
// member order and line breaks -- tools/trace_check.py --alerts enforces
// the same shape in CI -- so anything else fails with a position-anchored
// diagnostic instead of being guessed at. The header's detector spec reads
// into the writer's own obs::MonitorSpec.
#pragma once

#include <string>
#include <vector>

#include "obs/monitor.hpp"
#include "util/binio.hpp"
#include "util/text_scanner.hpp"

namespace bba::tools {

/// One fired alert. `dir` is empty for kind "slo"; the detail fields are
/// meaningful only for their kind (ewma: center/band, cusum:
/// z/sum/threshold, slo: threshold/streak).
struct AlertData {
  std::uint64_t seq = 0;
  std::string kind;    ///< "ewma" | "cusum" | "slo"
  std::string metric;  ///< monitor metric or SLO metric name
  std::size_t day = 0, window = 0, group = 0;
  std::string dir;  ///< "up" | "down"; empty for slo
  double value = 0.0;
  double center = 0.0, band = 0.0;             // ewma
  double z = 0.0, sum = 0.0;                   // cusum
  double threshold = 0.0;                      // cusum + slo
  std::uint64_t streak = 0;                    // slo
};

struct AlertsArtifact {
  std::uint64_t seed = 0;
  std::size_t days = 0, windows = 0;
  std::vector<std::string> groups;
  obs::MonitorSpec spec;          ///< the pinned detector spec
  std::vector<AlertData> alerts;  ///< fold (= seq) order
  std::uint64_t summary_cells = 0, summary_alerts = 0;
};

inline bool parse_alerts(const std::string& text, const std::string& path,
                         AlertsArtifact* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    *error = path + ": " + why;
    return false;
  };
  util::TextScanner s(text);
  std::uint64_t days = 0, windows = 0;
  bool ok = s.lit("{\"schema\":\"bba.alerts.v1\",\"seed\":") &&
            s.u64(&out->seed) && s.lit(",\"days\":") && s.u64(&days) &&
            s.lit(",\"windows_per_day\":") && s.u64(&windows) &&
            s.lit(",\"groups\":[");
  out->days = static_cast<std::size_t>(days);
  out->windows = static_cast<std::size_t>(windows);
  while (ok && !s.peek(']')) {
    ok = (out->groups.empty() || s.lit(",")) &&
         s.quoted(&out->groups.emplace_back());
  }
  if (ok && !obs::grid_fits(out->groups.size(), days, windows)) {
    return fail("grid of " + std::to_string(out->groups.size()) +
                " groups x " + std::to_string(days) + " days x " +
                std::to_string(windows) + " windows is empty or too large");
  }
  obs::MonitorSpec& sp = out->spec;
  ok = ok && s.lit("],\"spec\":{\"warmup\":") && s.u64(&sp.warmup) &&
       s.lit(",\"ewma_alpha\":") && s.f64(&sp.ewma_alpha) &&
       s.lit(",\"ewma_k\":") && s.f64(&sp.ewma_k) &&
       s.lit(",\"cusum_k\":") && s.f64(&sp.cusum_k) &&
       s.lit(",\"cusum_h\":") && s.f64(&sp.cusum_h) &&
       s.lit(",\"sd_floor\":") && s.f64(&sp.sd_floor) &&
       s.lit(",\"slo_rebuffer_ratio\":") && s.f64(&sp.slo_rebuffer_ratio) &&
       s.lit(",\"slo_rebuffer_windows\":") &&
       s.u64(&sp.slo_rebuffer_windows) && s.lit(",\"slo_join_s\":") &&
       s.f64(&sp.slo_join_s) && s.lit(",\"slo_join_windows\":") &&
       s.u64(&sp.slo_join_windows) && s.lit(",\"top_k\":") &&
       s.u64(&sp.top_k) && s.lit(",\"capture\":") && s.flag(&sp.capture) &&
       s.lit("}}\n");
  // Alert lines in fold order, closed by the summary trailer.
  bool have_summary = false;
  while (ok && !have_summary) {
    if (s.at_end()) {
      return fail("missing summary trailer (truncated artifact?)");
    }
    if (!s.accept("{\"ev\":\"alert\",\"seq\":")) {
      ok = s.lit("{\"ev\":\"summary\",\"cells\":") &&
           s.u64(&out->summary_cells) && s.lit(",\"alerts\":") &&
           s.u64(&out->summary_alerts) && s.lit("}");
      // The file ends in the newline write_json_output adds to render().
      s.accept("\n");
      have_summary = ok;
      break;
    }
    AlertData a;
    std::uint64_t day = 0, window = 0, group = 0;
    std::string group_name;
    ok = s.u64(&a.seq) && s.lit(",\"kind\":") && s.quoted(&a.kind);
    if (ok && a.kind != "ewma" && a.kind != "cusum" && a.kind != "slo") {
      return fail("unknown alert kind \"" + a.kind + "\"");
    }
    ok = ok && s.lit(",\"metric\":") && s.quoted(&a.metric) &&
         s.lit(",\"day\":") && s.u64(&day) && s.lit(",\"window\":") &&
         s.u64(&window) && s.lit(",\"group\":") && s.u64(&group) &&
         s.lit(",\"group_name\":") && s.quoted(&group_name) &&
         (a.kind == "slo" || (s.lit(",\"dir\":") && s.quoted(&a.dir))) &&
         s.lit(",\"value\":") && s.f64(&a.value);
    if (a.kind == "ewma") {
      ok = ok && s.lit(",\"center\":") && s.f64(&a.center) &&
           s.lit(",\"band\":") && s.f64(&a.band);
    } else if (a.kind == "cusum") {
      ok = ok && s.lit(",\"z\":") && s.f64(&a.z) && s.lit(",\"sum\":") &&
           s.f64(&a.sum) && s.lit(",\"threshold\":") && s.f64(&a.threshold);
    } else {
      ok = ok && s.lit(",\"threshold\":") && s.f64(&a.threshold) &&
           s.lit(",\"streak\":") && s.u64(&a.streak);
    }
    ok = ok && s.lit("}\n");
    if (!ok) break;
    if (day >= days || window >= windows || group >= out->groups.size()) {
      return fail("alert indices out of range");
    }
    a.day = static_cast<std::size_t>(day);
    a.window = static_cast<std::size_t>(window);
    a.group = static_cast<std::size_t>(group);
    if (a.seq != out->alerts.size()) {
      return fail("alert seq out of fold order");
    }
    if (group_name != out->groups[a.group]) {
      return fail("alert group_name does not match its group index");
    }
    out->alerts.push_back(std::move(a));
  }
  if (!ok) return fail(s.error());
  if (!s.at_end()) return fail("trailing data after the summary line");
  if (out->summary_alerts != out->alerts.size()) {
    return fail("summary alert count does not match the alert lines");
  }
  return true;
}

inline bool load_alerts(const std::string& path, AlertsArtifact* out,
                        std::string* error) {
  std::string text;
  return util::read_file(path, &text, error) &&
         parse_alerts(text, path, out, error);
}

}  // namespace bba::tools
