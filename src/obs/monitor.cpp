#include "obs/monitor.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/trace_jsonl.hpp"
#include "util/assert.hpp"

namespace bba::obs {

namespace {

constexpr const char* kMetricNames[kNumMonitorMetrics] = {
    "rebuffer_ratio", "join_s", "rate_kbps", "fault_share"};

constexpr std::size_t kNumSlos = kNumMonitorSlos;

/// The offender score for one metric: higher is worse, so alerting on a
/// *drop* in played rate captures the slowest sessions. Pure per-session
/// arithmetic -- no cell state -- so the candidate ranking is identical in
/// any fold interleaving of the same canonical order.
double offender_score(std::size_t metric, const sim::SessionMetrics& m) {
  switch (metric) {
    case 0: return m.rebuffer_s;
    case 1: return m.join_s;
    case 2: return -m.avg_rate_bps;
    default: return static_cast<double>(m.fault_stall_count);
  }
}

bool parse_u64_field(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_f64_field(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

double monitor_metric_value(const TimelineCell& cell, std::size_t metric) {
  BBA_ASSERT(metric < kNumMonitorMetrics, "monitor metric out of range");
  switch (metric) {
    case 0: {  // rebuffer_ratio: stall time / (play + stall) time
      const std::uint64_t denom = cell.play_micro + cell.rebuffer_micro;
      if (denom == 0) return 0.0;
      return static_cast<double>(cell.rebuffer_micro) /
             static_cast<double>(denom);
    }
    case 1: {  // join_s: mean startup delay per session
      if (cell.sessions == 0) return 0.0;
      return static_cast<double>(cell.join_micro) /
             (1e6 * static_cast<double>(cell.sessions));
    }
    case 2: {  // rate_kbps: play-time-weighted delivered rate
      if (cell.play_micro == 0) return 0.0;
      return static_cast<double>(cell.rate_play_kbit) * 1e6 /
             static_cast<double>(cell.play_micro);
    }
    default: {  // fault_share: fault-attributed stalls / stalls
      if (cell.rebuffers == 0) return 0.0;
      return static_cast<double>(cell.fault_stalls) /
             static_cast<double>(cell.rebuffers);
    }
  }
}

bool MonitorSpec::parse(const std::string& spec, MonitorSpec* out,
                        std::string* error) {
  MonitorSpec s;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) *error = "alert-spec item missing '=': " + item;
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    bool ok = true;
    if (key == "warmup") {
      ok = parse_u64_field(val.c_str(), &s.warmup);
    } else if (key == "ewma_alpha") {
      ok = parse_f64_field(val.c_str(), &s.ewma_alpha);
    } else if (key == "ewma_k") {
      ok = parse_f64_field(val.c_str(), &s.ewma_k);
    } else if (key == "cusum_k") {
      ok = parse_f64_field(val.c_str(), &s.cusum_k);
    } else if (key == "cusum_h") {
      ok = parse_f64_field(val.c_str(), &s.cusum_h);
    } else if (key == "sd_floor") {
      ok = parse_f64_field(val.c_str(), &s.sd_floor);
    } else if (key == "slo_rebuffer_ratio") {
      ok = parse_f64_field(val.c_str(), &s.slo_rebuffer_ratio);
    } else if (key == "slo_rebuffer_windows") {
      ok = parse_u64_field(val.c_str(), &s.slo_rebuffer_windows);
    } else if (key == "slo_join_s") {
      ok = parse_f64_field(val.c_str(), &s.slo_join_s);
    } else if (key == "slo_join_windows") {
      ok = parse_u64_field(val.c_str(), &s.slo_join_windows);
    } else if (key == "top_k") {
      ok = parse_u64_field(val.c_str(), &s.top_k);
    } else if (key == "capture") {
      std::uint64_t v = 0;
      ok = parse_u64_field(val.c_str(), &v) && v <= 1;
      s.capture = v != 0;
    } else {
      if (error != nullptr) *error = "unknown alert-spec key: " + key;
      return false;
    }
    if (!ok) {
      if (error != nullptr) {
        *error = "bad alert-spec value for " + key + ": " + val;
      }
      return false;
    }
  }
  if (s.warmup < 2) {
    if (error != nullptr) *error = "alert-spec warmup must be >= 2";
    return false;
  }
  if (s.slo_rebuffer_windows < 1 || s.slo_join_windows < 1) {
    if (error != nullptr) *error = "alert-spec slo windows must be >= 1";
    return false;
  }
  *out = s;
  return true;
}

std::string MonitorSpec::to_json() const {
  std::string o = "{\"warmup\":";
  jsonl::append_u64(o, warmup);
  o += ",\"ewma_alpha\":";
  jsonl::append_double(o, ewma_alpha);
  o += ",\"ewma_k\":";
  jsonl::append_double(o, ewma_k);
  o += ",\"cusum_k\":";
  jsonl::append_double(o, cusum_k);
  o += ",\"cusum_h\":";
  jsonl::append_double(o, cusum_h);
  o += ",\"sd_floor\":";
  jsonl::append_double(o, sd_floor);
  o += ",\"slo_rebuffer_ratio\":";
  jsonl::append_double(o, slo_rebuffer_ratio);
  o += ",\"slo_rebuffer_windows\":";
  jsonl::append_u64(o, slo_rebuffer_windows);
  o += ",\"slo_join_s\":";
  jsonl::append_double(o, slo_join_s);
  o += ",\"slo_join_windows\":";
  jsonl::append_u64(o, slo_join_windows);
  o += ",\"top_k\":";
  jsonl::append_u64(o, top_k);
  o += ",\"capture\":";
  o += capture ? "true" : "false";
  o += '}';
  return o;
}

HealthMonitor::HealthMonitor(MonitorSpec spec) : spec_(spec) {}

void HealthMonitor::begin_run(std::uint64_t seed,
                              const std::vector<std::string>& groups,
                              std::size_t days,
                              std::size_t windows_per_day) {
  BBA_ASSERT(!groups.empty(), "monitor needs at least one group");
  BBA_ASSERT(days >= 1 && windows_per_day >= 1,
             "monitor grid dimensions must be >= 1");
  if (!configured()) {
    st_.seed = seed;
    st_.days = days;
    st_.windows = windows_per_day;
    st_.groups = groups;
    const std::size_t g = groups.size();
    st_.cells.assign(days * windows_per_day * g, TimelineCell{});
    st_.ewma.assign(g * kNumMonitorMetrics, stats::EwmaState{});
    st_.cusum.assign(g * kNumMonitorMetrics, stats::CusumState{});
    st_.burn.assign(g * kNumSlos, stats::BurnState{});
    st_.cand.assign(g * kNumMonitorMetrics, MonitorCandidates{});
    const std::size_t top_k = static_cast<std::size_t>(spec_.top_k);
    for (MonitorCandidates& c : st_.cand) {
      c.sessions.reserve(top_k);
      c.scores.reserve(top_k);
    }
    return;
  }
  BBA_ASSERT(st_.seed == seed && st_.windows == windows_per_day &&
                 st_.groups == groups,
             "monitor begin_run mismatch (seed/groups/windows changed)");
  if (days > st_.days) {
    st_.days = days;
    st_.cells.resize(st_.days * st_.windows * st_.groups.size());
  }
}

void HealthMonitor::note_candidate(std::size_t group, std::uint64_t session,
                                   const sim::SessionMetrics& m) {
  const std::size_t top_k = static_cast<std::size_t>(spec_.top_k);
  if (top_k == 0) return;
  for (std::size_t metric = 0; metric < kNumMonitorMetrics; ++metric) {
    const double score = offender_score(metric, m);
    MonitorCandidates& c = st_.cand[group * kNumMonitorMetrics + metric];
    // Keep the K worst (highest score); earliest session wins ties, which
    // the insertion order guarantees (sessions arrive in canonical order
    // and a tie never displaces an earlier entry).
    std::size_t at = c.scores.size();
    while (at > 0 && score > c.scores[at - 1]) --at;
    if (at >= top_k) continue;
    if (c.scores.size() < top_k) {
      c.sessions.insert(c.sessions.begin() + static_cast<std::ptrdiff_t>(at),
                        session);
      c.scores.insert(c.scores.begin() + static_cast<std::ptrdiff_t>(at),
                      score);
    } else {
      c.sessions.pop_back();
      c.scores.pop_back();
      c.sessions.insert(c.sessions.begin() + static_cast<std::ptrdiff_t>(at),
                        session);
      c.scores.insert(c.scores.begin() + static_cast<std::ptrdiff_t>(at),
                      score);
    }
  }
}

void HealthMonitor::record(std::size_t day, std::size_t window,
                           std::size_t group, std::uint64_t session,
                           const sim::SessionMetrics& m) {
  BBA_ASSERT(configured(), "monitor record before begin_run");
  BBA_ASSERT(window < st_.windows && group < st_.groups.size(),
             "monitor record out of range");
  if (day >= st_.days) {
    // Same cold growth rule as the timeline: the sequential engine can
    // outrun its declared grid when reallocated budget draws deeper keys.
    st_.days = day + 1;
    st_.cells.resize(st_.days * st_.windows * st_.groups.size());
  }
  const std::uint64_t linear =
      static_cast<std::uint64_t>(day) * st_.windows + window;
  if (!st_.deferred) {
    BBA_ASSERT(linear >= st_.consumed,
               "monitor record out of canonical cell order");
    if (linear != st_.open && linear > st_.open) {
      // Crossing into a later cell closes everything before it.
      consume_through(linear);
    }
    st_.open = linear;
    if (spec_.capture) note_candidate(group, session, m);
  }
  st_.cells[(linear * st_.groups.size()) + group].fold(m);
}

void HealthMonitor::enqueue_captures(std::uint64_t linear, std::size_t group,
                                     std::size_t metric,
                                     const std::string& marker) {
  if (!spec_.capture || st_.deferred) return;
  const MonitorCandidates& c = st_.cand[group * kNumMonitorMetrics + metric];
  const std::uint64_t day = linear / st_.windows;
  const std::uint64_t window = linear % st_.windows;
  for (std::size_t i = 0; i < c.sessions.size(); ++i) {
    st_.pending.push_back(MonitorCapture{day, window,
                                         static_cast<std::uint64_t>(group),
                                         c.sessions[i], marker});
  }
}

void HealthMonitor::consume_cell(std::uint64_t linear) {
  const std::size_t n_groups = st_.groups.size();
  const std::uint64_t day = linear / st_.windows;
  const std::uint64_t window = linear % st_.windows;
  const stats::EwmaConfig ecfg{spec_.ewma_alpha, spec_.ewma_k, spec_.warmup,
                               spec_.sd_floor};
  const stats::CusumConfig ccfg{spec_.cusum_k, spec_.cusum_h, spec_.warmup,
                                spec_.sd_floor};
  for (std::size_t g = 0; g < n_groups; ++g) {
    const TimelineCell& cell = st_.cells[linear * n_groups + g];
    if (cell.empty()) continue;
    double values[kNumMonitorMetrics];
    for (std::size_t metric = 0; metric < kNumMonitorMetrics; ++metric) {
      values[metric] = monitor_metric_value(cell, metric);
    }
    // A fired alert appends one artifact line and (when this cell is the
    // open one with candidates) enqueues its offenders for trace capture.
    auto emit = [&](const char* kind, std::size_t metric, int dir,
                    const char* detail) {
      std::string& o = st_.alert_log;
      o += "{\"ev\":\"alert\",\"seq\":";
      jsonl::append_u64(o, st_.alert_seq);
      st_.alert_seq += 1;
      o += ",\"kind\":\"";
      o += kind;
      o += "\",\"metric\":\"";
      o += kMetricNames[metric];
      o += "\",\"day\":";
      jsonl::append_u64(o, day);
      o += ",\"window\":";
      jsonl::append_u64(o, window);
      o += ",\"group\":";
      jsonl::append_u64(o, g);
      o += ",\"group_name\":\"";
      jsonl::append_escaped(o, st_.groups[g]);
      o += "\"";
      if (dir != 0) {
        o += ",\"dir\":\"";
        o += dir > 0 ? "up" : "down";
        o += "\"";
      }
      o += ",\"value\":";
      jsonl::append_double(o, values[metric]);
      o += detail;
      o += "}\n";
      // The trace marker repeats the alert identity compactly; the session
      // line that precedes it carries the per-session coordinates.
      std::string marker = "{\"ev\":\"alert\",\"kind\":\"";
      marker += kind;
      marker += "\",\"metric\":\"";
      marker += kMetricNames[metric];
      marker += "\",\"day\":";
      jsonl::append_u64(marker, day);
      marker += ",\"window\":";
      jsonl::append_u64(marker, window);
      marker += ",\"group\":\"";
      jsonl::append_escaped(marker, st_.groups[g]);
      marker += "\"}\n";
      enqueue_captures(linear, g, metric, marker);
    };
    for (std::size_t metric = 0; metric < kNumMonitorMetrics; ++metric) {
      const double x = values[metric];
      stats::EwmaState& es = st_.ewma[g * kNumMonitorMetrics + metric];
      const double center = es.ewma;  // band center BEFORE this value folds
      const int efired = stats::ewma_step(es, x, ecfg);
      if (efired != 0) {
        std::string detail = ",\"center\":";
        jsonl::append_double(detail, center);
        detail += ",\"band\":";
        jsonl::append_double(detail, spec_.ewma_k * es.sd);
        emit("ewma", metric, efired, detail.c_str());
      }
      stats::CusumState& cs = st_.cusum[g * kNumMonitorMetrics + metric];
      const double old_pos = cs.s_pos;
      const double old_neg = cs.s_neg;
      const int cfired = stats::cusum_step(cs, x, ccfg);
      if (cfired != 0) {
        const double z = (x - cs.base.mean) / cs.sd;
        const double sum = cfired > 0 ? old_pos + z - spec_.cusum_k
                                      : old_neg - z - spec_.cusum_k;
        std::string detail = ",\"z\":";
        jsonl::append_double(detail, z);
        detail += ",\"sum\":";
        jsonl::append_double(detail, sum);
        detail += ",\"threshold\":";
        jsonl::append_double(detail, spec_.cusum_h);
        emit("cusum", metric, cfired, detail.c_str());
      }
    }
    const stats::BurnConfig slo_cfg[kNumSlos] = {
        {spec_.slo_rebuffer_ratio, spec_.slo_rebuffer_windows},
        {spec_.slo_join_s, spec_.slo_join_windows}};
    const std::size_t slo_metric[kNumSlos] = {0, 1};
    for (std::size_t s = 0; s < kNumSlos; ++s) {
      stats::BurnState& bs = st_.burn[g * kNumSlos + s];
      const double x = values[slo_metric[s]];
      if (stats::burn_step(bs, x, slo_cfg[s])) {
        std::string detail = ",\"threshold\":";
        jsonl::append_double(detail, slo_cfg[s].threshold);
        detail += ",\"streak\":";
        jsonl::append_u64(detail, bs.streak);
        emit("slo", slo_metric[s], 0, detail.c_str());
      }
    }
  }
}

void HealthMonitor::consume_through(std::uint64_t linear_end) {
  const std::uint64_t total =
      static_cast<std::uint64_t>(st_.days) * st_.windows;
  if (linear_end > total) linear_end = total;
  for (std::uint64_t linear = st_.consumed; linear < linear_end; ++linear) {
    consume_cell(linear);
  }
  if (linear_end > st_.consumed) {
    st_.consumed = linear_end;
    // Candidates belong to the cell that just closed; the next open cell
    // starts fresh. clear() keeps capacity, so no steady-state allocation.
    for (MonitorCandidates& c : st_.cand) {
      c.sessions.clear();
      c.scores.clear();
    }
  }
}

void HealthMonitor::finalize() {
  if (!configured() || st_.deferred) return;
  consume_through(static_cast<std::uint64_t>(st_.days) * st_.windows);
}

void HealthMonitor::refold() {
  BBA_ASSERT(configured(), "monitor refold before begin_run");
  st_.deferred = false;
  st_.consumed = 0;
  st_.open = 0;
  st_.alert_seq = 0;
  st_.alert_log.clear();
  st_.pending.clear();
  const std::size_t g = st_.groups.size();
  st_.ewma.assign(g * kNumMonitorMetrics, stats::EwmaState{});
  st_.cusum.assign(g * kNumMonitorMetrics, stats::CusumState{});
  st_.burn.assign(g * kNumSlos, stats::BurnState{});
  for (MonitorCandidates& c : st_.cand) {
    c.sessions.clear();
    c.scores.clear();
  }
  // Candidates are empty throughout, so the refold fires the same alert
  // lines as the online fold but no captures (per-session data is gone).
  consume_through(static_cast<std::uint64_t>(st_.days) * st_.windows);
}

std::vector<MonitorCapture> HealthMonitor::take_captures() {
  std::vector<MonitorCapture> out = std::move(st_.pending);
  st_.pending.clear();
  std::stable_sort(out.begin(), out.end(),
                   [](const MonitorCapture& a, const MonitorCapture& b) {
                     if (a.day != b.day) return a.day < b.day;
                     if (a.window != b.window) return a.window < b.window;
                     if (a.group != b.group) return a.group < b.group;
                     return a.session < b.session;
                   });
  // Dedup by coordinates; stable_sort kept the first-fired marker first.
  std::vector<MonitorCapture> dedup;
  dedup.reserve(out.size());
  for (MonitorCapture& c : out) {
    if (!dedup.empty() && dedup.back().day == c.day &&
        dedup.back().window == c.window && dedup.back().group == c.group &&
        dedup.back().session == c.session) {
      continue;
    }
    dedup.push_back(std::move(c));
  }
  return dedup;
}

std::string HealthMonitor::render() const {
  std::string o = "{\"schema\":\"bba.alerts.v1\",\"seed\":";
  jsonl::append_u64(o, st_.seed);
  o += ",\"days\":";
  jsonl::append_u64(o, st_.days);
  o += ",\"windows_per_day\":";
  jsonl::append_u64(o, st_.windows);
  o += ",\"groups\":[";
  for (std::size_t g = 0; g < st_.groups.size(); ++g) {
    if (g != 0) o += ',';
    o += '"';
    jsonl::append_escaped(o, st_.groups[g]);
    o += '"';
  }
  o += "],\"spec\":";
  o += spec_.to_json();
  o += "}\n";
  o += st_.alert_log;
  std::uint64_t filled = 0;
  for (const TimelineCell& c : st_.cells) {
    if (!c.empty()) ++filled;
  }
  // The summary counts cells and alerts only -- captures are a trace-side
  // effect that sharded refolds cannot reproduce, so they stay out of the
  // artifact to keep shard-merge byte equality.
  o += "{\"ev\":\"summary\",\"cells\":";
  jsonl::append_u64(o, filled);
  o += ",\"alerts\":";
  jsonl::append_u64(o, st_.alert_seq);
  o += '}';
  return o;
}

void HealthMonitor::restore(MonitorState st) {
  const std::size_t g = st.groups.size();
  BBA_ASSERT(g >= 1 && st.windows >= 1 && st.days >= 1,
             "monitor restore: bad grid");
  BBA_ASSERT(st.cells.size() == st.days * st.windows * g &&
                 st.ewma.size() == g * kNumMonitorMetrics &&
                 st.cusum.size() == g * kNumMonitorMetrics &&
                 st.burn.size() == g * kNumSlos &&
                 st.cand.size() == g * kNumMonitorMetrics,
             "monitor restore: inconsistent state");
  st_ = std::move(st);
  const std::size_t top_k = static_cast<std::size_t>(spec_.top_k);
  for (MonitorCandidates& c : st_.cand) {
    c.sessions.reserve(top_k);
    c.scores.reserve(top_k);
  }
}

}  // namespace bba::obs
