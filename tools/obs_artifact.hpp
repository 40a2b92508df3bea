// The bba.timeline.v1 artifact model + strict parser, shared by the
// bba_obs CLI (tools/bba_obs_cli.cpp) and its tests
// (tests/test_obs_cli.cpp).
//
// The artifact is this repo's own machine-written single-line JSON
// (obs/timeline.cpp), so the parser is a strict cursor scanner for
// exactly that member order -- the tools/trace_check.py --timeline
// validator enforces the same shape in CI. Anything else fails with a
// position-anchored diagnostic instead of being guessed at.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "stats/sketch.hpp"
#include "util/binio.hpp"

namespace bba::tools {

/// One (day, window, group) timeline cell: integer tallies plus the
/// derived per-hour rates the dashboard renders.
struct CellData {
  std::size_t day = 0, window = 0, group = 0;
  unsigned long long sessions = 0, abandoned = 0, rebuffers = 0,
                     fault_stalls = 0, switches = 0, play_micro = 0,
                     rebuffer_micro = 0, join_micro = 0, rate_play_kbit = 0;

  double play_h() const {
    return static_cast<double>(play_micro) * 1e-6 / 3600.0;
  }
  double play_s() const { return static_cast<double>(play_micro) * 1e-6; }
  double rebuf_per_hour() const {
    const double h = play_h();
    return h > 0.0 ? static_cast<double>(rebuffers) / h : 0.0;
  }
  double rate_kbps() const {
    const double s = play_s();
    return s > 0.0 ? static_cast<double>(rate_play_kbit) / s : 0.0;
  }

  void merge(const CellData& o) {
    sessions += o.sessions;
    abandoned += o.abandoned;
    rebuffers += o.rebuffers;
    fault_stalls += o.fault_stalls;
    switches += o.switches;
    play_micro += o.play_micro;
    rebuffer_micro += o.rebuffer_micro;
    join_micro += o.join_micro;
    rate_play_kbit += o.rate_play_kbit;
  }
};

inline constexpr const char* kSketchMetrics[] = {"rate_bps", "join_s",
                                                 "buffer_s"};
inline constexpr std::size_t kNumSketchMetrics = 3;

struct Artifact {
  unsigned long long seed = 0;
  std::size_t days = 0, windows = 0;
  std::vector<std::string> groups;
  std::vector<CellData> cells;
  /// [group * kNumSketchMetrics + metric]
  std::vector<stats::QuantileSketch> sketches;

  /// Per-(window, group) cells merged across days.
  std::vector<CellData> merged_by_window() const {
    std::vector<CellData> out(windows * groups.size());
    for (const CellData& c : cells) {
      out[c.window * groups.size() + c.group].merge(c);
    }
    return out;
  }
  /// One cell per group, merged over the whole grid.
  std::vector<CellData> group_totals() const {
    std::vector<CellData> out(groups.size());
    for (const CellData& c : cells) out[c.group].merge(c);
    return out;
  }
};

/// Strict cursor scanner for the artifact's fixed member order.
class Scanner {
 public:
  explicit Scanner(const std::string& text)
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

inline bool parse_artifact(const std::string& text, const std::string& path,
                           Artifact* out, std::string* error) {
  Scanner s(text);
  unsigned long long days = 0, windows = 0;
  bool ok = s.lit("{\"schema\":\"bba.timeline.v1\",\"seed\":") &&
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
  ok = ok && s.lit("],\"cells\":[");
  while (ok && !s.peek(']')) {
    if (!out->cells.empty()) ok = s.lit(",");
    CellData c;
    unsigned long long day = 0, window = 0, group = 0;
    ok = ok && s.lit("{\"day\":") && s.u64(&day) && s.lit(",\"window\":") &&
         s.u64(&window) && s.lit(",\"group\":") && s.u64(&group) &&
         s.lit(",\"sessions\":") && s.u64(&c.sessions) &&
         s.lit(",\"abandoned\":") && s.u64(&c.abandoned) &&
         s.lit(",\"rebuffers\":") && s.u64(&c.rebuffers) &&
         s.lit(",\"fault_stalls\":") && s.u64(&c.fault_stalls) &&
         s.lit(",\"switches\":") && s.u64(&c.switches) &&
         s.lit(",\"play_micro\":") && s.u64(&c.play_micro) &&
         s.lit(",\"rebuffer_micro\":") && s.u64(&c.rebuffer_micro) &&
         s.lit(",\"join_micro\":") && s.u64(&c.join_micro) &&
         s.lit(",\"rate_play_kbit\":") && s.u64(&c.rate_play_kbit) &&
         s.lit("}");
    c.day = static_cast<std::size_t>(day);
    c.window = static_cast<std::size_t>(window);
    c.group = static_cast<std::size_t>(group);
    if (ok && (c.day >= out->days || c.window >= out->windows ||
               c.group >= out->groups.size())) {
      *error = path + ": cell indices out of range";
      return false;
    }
    if (ok) out->cells.push_back(c);
  }
  ok = ok && s.lit("],\"sketches\":[");
  out->sketches.assign(out->groups.size() * kNumSketchMetrics,
                       stats::QuantileSketch{});
  bool first_sketch = true;
  while (ok && !s.peek(']')) {
    if (!first_sketch) ok = s.lit(",");
    first_sketch = false;
    unsigned long long group = 0, zero = 0, count = 0;
    std::string metric;
    ok = ok && s.lit("{\"group\":") && s.u64(&group) &&
         s.lit(",\"metric\":") && s.quoted(&metric) && s.lit(",\"zero\":") &&
         s.u64(&zero) && s.lit(",\"count\":") && s.u64(&count) &&
         s.lit(",\"buckets\":[");
    std::size_t metric_idx = kNumSketchMetrics;
    for (std::size_t m = 0; m < kNumSketchMetrics; ++m) {
      if (metric == kSketchMetrics[m]) metric_idx = m;
    }
    if (ok && (group >= out->groups.size() ||
               metric_idx == kNumSketchMetrics)) {
      *error = path + ": unknown sketch group/metric";
      return false;
    }
    stats::QuantileSketch sk;
    sk.add_zero(zero);
    bool first_bucket = true;
    while (ok && !s.peek(']')) {
      if (!first_bucket) ok = s.lit(",");
      first_bucket = false;
      unsigned long long bucket = 0, n = 0;
      ok = ok && s.lit("[") && s.u64(&bucket) && s.lit(",") && s.u64(&n) &&
           s.lit("]");
      if (ok) sk.add_bucket(static_cast<int>(bucket), n);
    }
    ok = ok && s.lit("]}");
    if (ok && sk.count() != count) {
      *error = path + ": sketch bucket counts do not sum to count";
      return false;
    }
    if (ok) {
      out->sketches[static_cast<std::size_t>(group) * kNumSketchMetrics +
                    metric_idx] = sk;
    }
  }
  ok = ok && s.lit("]}");
  if (!ok) {
    *error = path + ": " + (s.error().empty() ? "parse error" : s.error());
    return false;
  }
  return true;
}

inline bool load_artifact(const std::string& path, Artifact* out,
                          std::string* error) {
  std::string text;
  return util::read_file(path, &text, error) &&
         parse_artifact(text, path, out, error);
}

/// Per-(day, window) baseline-normalized samples of one metric for one
/// group: value(group cell) / value(baseline cell). Cells where either
/// side is undefined (no sessions on one side, or a zero/undefined
/// baseline value) carry no sample; `*skipped` (if non-null) counts them
/// so a diff can SAY how much of the grid it ignored instead of silently
/// thinning the sample set (a sparse partial artifact used to look like a
/// confident full-grid comparison).
inline std::vector<double> normalized_samples(
    const Artifact& a, std::size_t group, std::size_t baseline,
    double (CellData::*metric)() const, std::size_t* skipped = nullptr) {
  // Index cells by (day, window, group) for O(1) pairing.
  std::vector<CellData> grid(a.days * a.windows * a.groups.size());
  for (const CellData& c : a.cells) {
    grid[(c.day * a.windows + c.window) * a.groups.size() + c.group] = c;
  }
  std::vector<double> samples;
  samples.reserve(a.days * a.windows);
  if (skipped != nullptr) *skipped = 0;
  for (std::size_t d = 0; d < a.days; ++d) {
    for (std::size_t w = 0; w < a.windows; ++w) {
      const CellData& cg =
          grid[(d * a.windows + w) * a.groups.size() + group];
      const CellData& cb =
          grid[(d * a.windows + w) * a.groups.size() + baseline];
      const double vb = (cb.*metric)();
      if (cg.sessions == 0 || cb.sessions == 0 || !(vb > 0.0)) {
        if (skipped != nullptr) ++*skipped;
        continue;
      }
      samples.push_back((cg.*metric)() / vb);
    }
  }
  return samples;
}

}  // namespace bba::tools
