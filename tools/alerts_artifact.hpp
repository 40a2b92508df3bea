// The bba.alerts.v1 artifact model + strict parser, shared by the
// bba_obs CLI (tools/bba_obs_cli.cpp) and its tests
// (tests/test_obs_cli.cpp).
//
// The artifact is this repo's own machine-written JSONL (obs/monitor.cpp):
// one header line, the alert lines in fold order, one summary trailer.
// Like tools/obs_artifact.hpp, the parser is a strict cursor scanner for
// exactly the writer's member order -- tools/trace_check.py --alerts
// enforces the same shape in CI -- so anything else fails with a
// position-anchored diagnostic instead of being guessed at.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/binio.hpp"

namespace bba::tools {

/// One fired alert. `dir` is empty for kind "slo"; the detail fields are
/// meaningful only for their kind (ewma: center/band, cusum:
/// z/sum/threshold, slo: threshold/streak).
struct AlertData {
  unsigned long long seq = 0;
  std::string kind;    ///< "ewma" | "cusum" | "slo"
  std::string metric;  ///< monitor metric or SLO metric name
  std::size_t day = 0, window = 0, group = 0;
  std::string dir;  ///< "up" | "down"; empty for slo
  double value = 0.0;
  double center = 0.0, band = 0.0;             // ewma
  double z = 0.0, sum = 0.0;                   // cusum
  double threshold = 0.0;                      // cusum + slo
  unsigned long long streak = 0;               // slo
};

struct AlertsArtifact {
  unsigned long long seed = 0;
  std::size_t days = 0, windows = 0;
  std::vector<std::string> groups;
  // The pinned detector spec, header member order.
  unsigned long long warmup = 0, slo_rebuffer_windows = 0,
                     slo_join_windows = 0, top_k = 0;
  double ewma_alpha = 0.0, ewma_k = 0.0, cusum_k = 0.0, cusum_h = 0.0,
         sd_floor = 0.0, slo_rebuffer_ratio = 0.0, slo_join_s = 0.0;
  bool capture = false;
  std::vector<AlertData> alerts;  ///< fold (= seq) order
  unsigned long long summary_cells = 0, summary_alerts = 0;
};

/// Strict cursor scanner (the obs_artifact.hpp Scanner plus a double
/// field, since alert values are reals).
class AlertsScanner {
 public:
  explicit AlertsScanner(const std::string& text)
      : p_(text.c_str()), end_(p_ + text.size()) {}

  bool lit(const char* s) {
    ws();
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end_ - p_) < n ||
        std::memcmp(p_, s, n) != 0) {
      return fail(s);
    }
    p_ += n;
    return true;
  }
  bool u64(unsigned long long* out) {
    ws();
    if (p_ >= end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
      return fail("unsigned integer");
    }
    *out = 0;
    while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
      *out = *out * 10 + static_cast<unsigned long long>(*p_ - '0');
      ++p_;
    }
    return true;
  }
  bool f64(double* out) {
    ws();
    char* parse_end = nullptr;
    *out = std::strtod(p_, &parse_end);
    if (parse_end == p_) return fail("number");
    p_ = parse_end;
    return true;
  }
  bool quoted(std::string* out) {
    if (!lit("\"")) return false;
    out->clear();
    while (p_ < end_ && *p_ != '"') *out += *p_++;
    if (p_ >= end_) return fail("closing quote");
    ++p_;
    return true;
  }
  bool peek(char c) {
    ws();
    return p_ < end_ && *p_ == c;
  }
  bool at_end() {
    ws();
    return p_ >= end_;
  }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' ||
                         *p_ == '\t')) {
      ++p_;
    }
  }
  bool fail(const char* expected) {
    if (error_.empty()) {
      error_ = std::string("expected '") + expected + "' near: " +
               std::string(p_, std::min<std::size_t>(
                                   24, static_cast<std::size_t>(end_ - p_)));
    }
    return false;
  }

  const char* p_;
  const char* end_;
  std::string error_;
};

inline bool parse_alerts(const std::string& text, const std::string& path,
                         AlertsArtifact* out, std::string* error) {
  AlertsScanner s(text);
  unsigned long long days = 0, windows = 0;
  bool ok = s.lit("{\"schema\":\"bba.alerts.v1\",\"seed\":") &&
            s.u64(&out->seed) && s.lit(",\"days\":") && s.u64(&days) &&
            s.lit(",\"windows_per_day\":") && s.u64(&windows) &&
            s.lit(",\"groups\":[");
  out->days = static_cast<std::size_t>(days);
  out->windows = static_cast<std::size_t>(windows);
  while (ok && !s.peek(']')) {
    if (!out->groups.empty()) ok = s.lit(",");
    std::string name;
    ok = ok && s.quoted(&name);
    if (ok) out->groups.push_back(name);
  }
  ok = ok && s.lit("],\"spec\":{\"warmup\":") && s.u64(&out->warmup) &&
       s.lit(",\"ewma_alpha\":") && s.f64(&out->ewma_alpha) &&
       s.lit(",\"ewma_k\":") && s.f64(&out->ewma_k) &&
       s.lit(",\"cusum_k\":") && s.f64(&out->cusum_k) &&
       s.lit(",\"cusum_h\":") && s.f64(&out->cusum_h) &&
       s.lit(",\"sd_floor\":") && s.f64(&out->sd_floor) &&
       s.lit(",\"slo_rebuffer_ratio\":") && s.f64(&out->slo_rebuffer_ratio) &&
       s.lit(",\"slo_rebuffer_windows\":") &&
       s.u64(&out->slo_rebuffer_windows) && s.lit(",\"slo_join_s\":") &&
       s.f64(&out->slo_join_s) && s.lit(",\"slo_join_windows\":") &&
       s.u64(&out->slo_join_windows) && s.lit(",\"top_k\":") &&
       s.u64(&out->top_k);
  if (ok) {
    if (s.lit(",\"capture\":true}}")) {
      out->capture = true;
    } else {
      ok = s.lit(",\"capture\":false}}");
      out->capture = false;
    }
  }
  // Alert lines in fold order, closed by the summary trailer.
  bool have_summary = false;
  while (ok && !s.at_end()) {
    if (s.peek('{')) {
      // Disambiguate alert vs summary by the shared "{"ev":" prefix.
      if (!s.lit("{\"ev\":\"")) {
        ok = false;
        break;
      }
    }
    if (s.lit("alert\",\"seq\":")) {
      AlertData a;
      unsigned long long day = 0, window = 0, group = 0;
      std::string group_name;
      ok = s.u64(&a.seq) && s.lit(",\"kind\":") && s.quoted(&a.kind) &&
           s.lit(",\"metric\":") && s.quoted(&a.metric) &&
           s.lit(",\"day\":") && s.u64(&day) && s.lit(",\"window\":") &&
           s.u64(&window) && s.lit(",\"group\":") && s.u64(&group) &&
           s.lit(",\"group_name\":") && s.quoted(&group_name);
      a.day = static_cast<std::size_t>(day);
      a.window = static_cast<std::size_t>(window);
      a.group = static_cast<std::size_t>(group);
      if (ok && a.kind != "slo") {
        ok = s.lit(",\"dir\":") && s.quoted(&a.dir);
      }
      ok = ok && s.lit(",\"value\":") && s.f64(&a.value);
      if (ok && a.kind == "ewma") {
        ok = s.lit(",\"center\":") && s.f64(&a.center) &&
             s.lit(",\"band\":") && s.f64(&a.band) && s.lit("}");
      } else if (ok && a.kind == "cusum") {
        ok = s.lit(",\"z\":") && s.f64(&a.z) && s.lit(",\"sum\":") &&
             s.f64(&a.sum) && s.lit(",\"threshold\":") &&
             s.f64(&a.threshold) && s.lit("}");
      } else if (ok && a.kind == "slo") {
        ok = s.lit(",\"threshold\":") && s.f64(&a.threshold) &&
             s.lit(",\"streak\":") && s.u64(&a.streak) && s.lit("}");
      } else if (ok) {
        *error = path + ": unknown alert kind \"" + a.kind + "\"";
        return false;
      }
      if (ok && (a.day >= out->days || a.window >= out->windows ||
                 a.group >= out->groups.size())) {
        *error = path + ": alert indices out of range";
        return false;
      }
      if (ok && a.seq != out->alerts.size()) {
        *error = path + ": alert seq out of fold order";
        return false;
      }
      if (ok && group_name != out->groups[a.group]) {
        *error = path + ": alert group_name does not match its group index";
        return false;
      }
      if (ok) out->alerts.push_back(std::move(a));
    } else if (s.lit("summary\",\"cells\":")) {
      ok = s.u64(&out->summary_cells) && s.lit(",\"alerts\":") &&
           s.u64(&out->summary_alerts) && s.lit("}");
      have_summary = ok;
      break;
    } else {
      ok = false;
    }
  }
  if (ok && !have_summary) {
    *error = path + ": missing summary trailer (truncated artifact?)";
    return false;
  }
  if (ok && !s.at_end()) {
    *error = path + ": trailing data after the summary line";
    return false;
  }
  if (ok && out->summary_alerts != out->alerts.size()) {
    *error = path + ": summary alert count does not match the alert lines";
    return false;
  }
  if (!ok) {
    *error = path + ": " + (s.error().empty() ? "parse error" : s.error());
    return false;
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
