#include "exp/checkpoint.hpp"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "exp/block.hpp"
#include "exp/session_key.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/csv.hpp"

namespace bba::exp {

namespace {

using util::Cursor;
using util::put_varint;

// --- Field lists ------------------------------------------------------------
// A record type lists its fields once, in file order, in a template over
// the direction: Put appends them, Get reads them back and reports whether
// the payload held them. Integers are varints, doubles raw IEEE bits (the
// window cells are order-sensitive incremental means, so restored doubles
// must be bit-exact), bools one byte, strings util::put_string.

struct Put {
  std::string& p;

  template <typename... T>
  bool operator()(const T&... v) {
    (one(v), ...);
    return true;
  }
  /// A vector length; Get resizes every listed vector to it.
  template <typename V, typename... W>
  bool count(std::uint64_t /*cap*/, const V& v, const W&...) {
    put_varint(p, v.size());
    return true;
  }
  void one(double v) { util::put_f64(p, v); }
  void one(bool v) { p += static_cast<char>(v ? 1 : 0); }
  void one(const std::string& v) { util::put_string(p, v); }
  void one(std::integral auto v) {
    put_varint(p, static_cast<std::uint64_t>(v));
  }
};

struct Get {
  Cursor& c;

  template <typename... T>
  bool operator()(T&... v) {
    (one(v), ...);
    return !c.fail;
  }
  /// Rejects a length above `cap`: a corrupt varint must not turn into a
  /// giant allocation.
  template <typename... V>
  bool count(std::uint64_t cap, V&... v) {
    const std::uint64_t n = c.varint();
    if (c.fail || n > cap) return false;
    (v.resize(static_cast<std::size_t>(n)), ...);
    return true;
  }
  void one(double& v) { v = c.f64(); }
  void one(bool& v) { v = (c.u8() & 1) != 0; }
  void one(std::string& v) { c.str(&v); }
  template <std::integral T>
  void one(T& v) {
    v = static_cast<T>(c.varint());
  }
};

/// The group list of a RUN0, TLIN or ALRT section.
void put_groups(std::string& p, const std::vector<std::string>& groups) {
  put_varint(p, groups.size());
  for (const std::string& g : groups) util::put_string(p, g);
}

/// Reads a put_groups list. Its length, the grid dimensions its section
/// read before it, and the grid's cell count must pass obs::grid_fits, so
/// that a corrupt varint cannot turn into a giant allocation: every
/// section that calls this allocates the whole grid next.
bool parse_groups(Cursor& c, std::uint64_t days, std::uint64_t windows,
                  std::vector<std::string>* groups) {
  const std::uint64_t n = c.varint();
  if (c.fail || !obs::grid_fits(n, days, windows)) return false;
  groups->resize(static_cast<std::size_t>(n));
  for (std::string& g : *groups) {
    if (!c.str(&g)) return false;
  }
  return true;
}

template <class IO, class Cell>
bool window_cell(IO io, Cell& m) {
  return io(m.sessions, m.play_hours, m.rebuffer_count, m.rebuffer_s,
            m.avg_rate_bps, m.startup_rate_bps, m.steady_rate_bps,
            m.switch_count, m.steady_play_hours, m.fault_stall_count);
}

template <class IO, class Cell>
bool timeline_cell(IO io, Cell& t) {
  return io(t.sessions, t.abandoned, t.rebuffers, t.fault_stalls, t.switches,
            t.play_micro, t.rebuffer_micro, t.join_micro, t.rate_play_kbit);
}

// --- Section payloads ------------------------------------------------------

/// RUN0 between its leading u32 kind and its group list.
template <class IO, class Ck>
bool run_fields(IO io, Ck& ck) {
  return io(ck.seed, ck.days, ck.windows_per_day, ck.sessions_per_window,
            ck.shard_index, ck.shard_count, ck.total_keys, ck.cursor);
}

void put_run_section(std::string& p, const Checkpoint& ck) {
  util::put_u32(p, ck.kind);
  run_fields(Put{p}, ck);
  put_groups(p, ck.groups);
}

bool parse_run_section(Cursor& c, Checkpoint* out) {
  out->kind = c.u32();
  if (!run_fields(Get{c}, *out) ||
      !parse_groups(c, out->days, out->windows_per_day, &out->groups)) {
    return false;
  }
  out->cells.assign(
      out->groups.size(),
      std::vector<std::vector<WindowMetrics>>(
          static_cast<std::size_t>(out->days),
          std::vector<WindowMetrics>(
              static_cast<std::size_t>(out->windows_per_day))));
  return true;
}

void put_cells_section(std::string& p, const Checkpoint& ck) {
  std::uint64_t n = 0;
  for (const auto& group : ck.cells) {
    for (const auto& day : group) {
      for (const WindowMetrics& cell : day) n += cell.sessions != 0 ? 1 : 0;
    }
  }
  put_varint(p, n);
  for (std::size_t g = 0; g < ck.cells.size(); ++g) {
    for (std::size_t d = 0; d < ck.cells[g].size(); ++d) {
      for (std::size_t w = 0; w < ck.cells[g][d].size(); ++w) {
        const WindowMetrics& cell = ck.cells[g][d][w];
        if (cell.sessions == 0) continue;
        Put{p}(g, d, w);
        window_cell(Put{p}, cell);
      }
    }
  }
}

bool parse_cells_section(Cursor& c, Checkpoint* out) {
  const std::uint64_t n = c.varint();
  for (std::uint64_t i = 0; i < n && !c.fail; ++i) {
    const std::uint64_t g = c.varint();
    const std::uint64_t d = c.varint();
    const std::uint64_t w = c.varint();
    if (c.fail || g >= out->cells.size() || d >= out->days ||
        w >= out->windows_per_day) {
      return false;
    }
    window_cell(Get{c}, out->cells[static_cast<std::size_t>(g)]
                                  [static_cast<std::size_t>(d)]
                                  [static_cast<std::size_t>(w)]);
  }
  return !c.fail;
}

void put_sketch(std::string& p, const stats::QuantileSketch& s) {
  put_varint(p, s.zero_count());
  std::uint64_t n_occ = 0;
  for (int b = 0; b < stats::QuantileSketch::kBuckets; ++b) {
    n_occ += s.bucket_count(b) != 0 ? 1 : 0;
  }
  put_varint(p, n_occ);
  for (int b = 0; b < stats::QuantileSketch::kBuckets; ++b) {
    if (s.bucket_count(b) == 0) continue;
    put_varint(p, static_cast<std::uint64_t>(b));
    put_varint(p, s.bucket_count(b));
  }
}

bool parse_sketch(Cursor& c, stats::QuantileSketch* s) {
  // count_ is always zero_ + sum(buckets_), so replaying the raw counts
  // through the deserialization hooks reconstructs the exact state.
  const std::uint64_t zero = c.varint();
  if (zero != 0) s->add_zero(zero);
  const std::uint64_t n_occ = c.varint();
  if (c.fail || n_occ > static_cast<std::uint64_t>(
                            stats::QuantileSketch::kBuckets)) {
    return false;
  }
  for (std::uint64_t i = 0; i < n_occ && !c.fail; ++i) {
    const std::uint64_t b = c.varint();
    const std::uint64_t count = c.varint();
    if (b >= static_cast<std::uint64_t>(stats::QuantileSketch::kBuckets)) {
      return false;
    }
    s->add_bucket(static_cast<int>(b), count);
  }
  return !c.fail;
}

void put_timeline_section(std::string& p, const obs::TimelineAggregator& t) {
  Put{p}(t.seed(), t.days(), t.windows_per_day());
  put_groups(p, t.group_names());
  std::uint64_t n = 0;
  for (std::size_t d = 0; d < t.days(); ++d) {
    for (std::size_t w = 0; w < t.windows_per_day(); ++w) {
      for (std::size_t g = 0; g < t.num_groups(); ++g) {
        n += t.cell(d, w, g).empty() ? 0 : 1;
      }
    }
  }
  put_varint(p, n);
  for (std::size_t d = 0; d < t.days(); ++d) {
    for (std::size_t w = 0; w < t.windows_per_day(); ++w) {
      for (std::size_t g = 0; g < t.num_groups(); ++g) {
        const obs::TimelineCell& cell = t.cell(d, w, g);
        if (cell.empty()) continue;
        Put{p}(d, w, g);
        timeline_cell(Put{p}, cell);
      }
    }
  }
  for (std::size_t g = 0; g < t.num_groups(); ++g) {
    for (std::size_t m = 0; m < obs::kNumTimelineSketches; ++m) {
      put_sketch(p, t.sketches(g).at(m));
    }
  }
}

bool parse_timeline_section(Cursor& c, obs::TimelineAggregator* t) {
  const std::uint64_t seed = c.varint();
  const std::uint64_t days = c.varint();
  const std::uint64_t windows = c.varint();
  std::vector<std::string> names;
  if (!parse_groups(c, days, windows, &names)) return false;
  const std::uint64_t n_groups = names.size();
  t->begin_run(seed, names, static_cast<std::size_t>(days),
               static_cast<std::size_t>(windows));
  const std::uint64_t n = c.varint();
  for (std::uint64_t i = 0; i < n && !c.fail; ++i) {
    const std::uint64_t d = c.varint();
    const std::uint64_t w = c.varint();
    const std::uint64_t g = c.varint();
    if (c.fail || d >= days || w >= windows || g >= n_groups) return false;
    timeline_cell(Get{c}, t->mutable_cell(static_cast<std::size_t>(d),
                                          static_cast<std::size_t>(w),
                                          static_cast<std::size_t>(g)));
  }
  for (std::uint64_t g = 0; g < n_groups && !c.fail; ++g) {
    obs::GroupSketches& s = t->mutable_sketches(static_cast<std::size_t>(g));
    for (std::size_t m = 0; m < obs::kNumTimelineSketches; ++m) {
      if (!parse_sketch(c, &s.at(m))) return false;
    }
  }
  return !c.fail;
}

template <class IO, class S>
bool trace_section(IO io, S& st) {
  return io(st.format, st.sample, st.anomaly_rebuffer_s, st.sessions_written,
            st.anomalies_written, st.bytes_written, st.write_errors,
            st.file_size);
}

template <class IO, class S>
bool seq_section(IO io, S& s) {
  if (!io(s.rounds, s.sessions_used, s.budget_sessions, s.next_key,
          s.batch_sessions, s.min_batches, s.baseline, s.confidence,
          s.metric, s.verdict) ||
      !io.count(4096, s.arms)) {
    return false;
  }
  for (auto& a : s.arms) {
    io(a.candidate, a.eliminated_round, a.n, a.mean, a.m2, a.lo, a.hi);
  }
  return io(s.decision_log);
}

/// The ALRT payload after its grid and cells: detector state, alert log,
/// offender candidates and the capture queue. The per-group vectors are
/// sized from the grid before a read.
template <class IO, class S>
bool monitor_detectors(IO io, S& st) {
  for (auto& e : st.ewma) {
    io(e.base.n, e.base.mean, e.base.m2, e.ewma, e.sd, e.ready);
  }
  for (auto& s : st.cusum) {
    io(s.base.n, s.base.mean, s.base.m2, s.sd, s.ready, s.s_pos, s.s_neg);
  }
  for (auto& b : st.burn) io(b.streak, b.armed);
  io(st.alert_seq, st.alert_log);
  for (auto& cand : st.cand) {
    if (!io.count(4096, cand.sessions, cand.scores)) return false;
    for (std::size_t i = 0; i < cand.sessions.size(); ++i) {
      io(cand.sessions[i], cand.scores[i]);
    }
  }
  if (!io.count(1u << 20, st.pending)) return false;
  for (auto& cap : st.pending) {
    io(cap.day, cap.window, cap.group, cap.session, cap.marker);
  }
  return io();
}

/// The ALRT payload: the monitor's complete MonitorState, detector doubles
/// as raw IEEE bits, prefixed by the spec JSON so a resume can reject a
/// changed --alert-spec.
void put_alerts_section(std::string& p, const std::string& spec_json,
                        const obs::MonitorState& st) {
  Put{p}(spec_json, st.deferred, st.seed, st.days, st.windows);
  put_groups(p, st.groups);
  Put{p}(st.consumed, st.open);
  std::uint64_t n = 0;
  for (const obs::TimelineCell& cell : st.cells) n += cell.empty() ? 0 : 1;
  put_varint(p, n);
  for (std::size_t i = 0; i < st.cells.size(); ++i) {
    if (st.cells[i].empty()) continue;
    put_varint(p, i);
    timeline_cell(Put{p}, st.cells[i]);
  }
  monitor_detectors(Put{p}, st);
}

bool parse_alerts_section(Cursor& c, std::string* spec_json,
                          obs::MonitorState* st) {
  Get io{c};
  if (!io(*spec_json, st->deferred, st->seed, st->days, st->windows) ||
      !parse_groups(c, st->days, st->windows, &st->groups) ||
      !io(st->consumed, st->open)) {
    return false;
  }
  const std::size_t g = st->groups.size();
  const std::uint64_t n_cells =
      static_cast<std::uint64_t>(st->days) * st->windows * g;
  st->cells.assign(static_cast<std::size_t>(n_cells), obs::TimelineCell{});
  const std::uint64_t n = c.varint();
  if (c.fail || n > n_cells) return false;
  for (std::uint64_t i = 0; i < n && !c.fail; ++i) {
    const std::uint64_t idx = c.varint();
    if (c.fail || idx >= n_cells) return false;
    timeline_cell(io, st->cells[static_cast<std::size_t>(idx)]);
  }
  st->ewma.assign(g * obs::kNumMonitorMetrics, stats::EwmaState{});
  st->cusum.assign(g * obs::kNumMonitorMetrics, stats::CusumState{});
  st->burn.assign(g * obs::kNumMonitorSlos, stats::BurnState{});
  st->cand.assign(g * obs::kNumMonitorMetrics, obs::MonitorCandidates{});
  return monitor_detectors(io, *st);
}

}  // namespace

// --- Container assembly -----------------------------------------------------

bool check_checkpoint_grid(std::uint64_t groups, std::uint64_t days,
                           std::string* error) {
  if (obs::grid_fits(groups, days, kWindowsPerDay)) return true;
  *error = "a run of " + std::to_string(groups) + " groups x " +
           std::to_string(days) + " days x " +
           std::to_string(kWindowsPerDay) +
           " windows is too large to checkpoint or to write as a timeline "
           "or alerts artifact (at most " +
           std::to_string(obs::kMaxGridCells) + " cells)";
  return false;
}

std::string serialize_checkpoint(const Checkpoint& ck) {
  BBA_ASSERT(ck.cells.size() == ck.groups.size(),
             "checkpoint cells/groups shape mismatch");
  std::string out;
  util::put_header(out, kCkptMagic, kCkptVersion);

  std::string footer, payload;
  std::uint64_t n_sections = 0;
  auto add_section = [&](std::uint32_t magic) {
    util::put_u32(footer, magic);
    put_varint(footer, out.size());
    put_varint(footer, util::kRecordFramingSize + payload.size());
    util::put_record(out, magic, payload);
    payload.clear();
    ++n_sections;
  };

  put_run_section(payload, ck);
  add_section(kCkptSectionRun);
  put_cells_section(payload, ck);
  add_section(kCkptSectionCells);
  if (ck.has_timeline) {
    put_timeline_section(payload, ck.timeline);
    add_section(kCkptSectionTimeline);
  }
  if (ck.has_trace) {
    trace_section(Put{payload}, ck.trace);
    add_section(kCkptSectionTrace);
  }
  if (ck.has_seq) {
    seq_section(Put{payload}, ck.seq);
    add_section(kCkptSectionSeq);
  }
  if (ck.has_alerts) {
    put_alerts_section(payload, ck.alerts_spec_json, ck.alerts);
    add_section(kCkptSectionAlerts);
  }

  std::string body;
  put_varint(body, n_sections);
  body += footer;
  util::put_footer(out, kCkptFooterMagic, body, kCkptTrailerMagic);
  return out;
}

bool parse_checkpoint(const std::string& bytes, Checkpoint* out,
                      std::string* error) {
  auto fail = [&](const char* what) {
    *error = std::string("checkpoint: ") + what;
    return false;
  };
  if (bytes.size() < util::kContainerMinSize) return fail("file too short");
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(bytes.data());
  if (const char* what =
          util::check_header(base, kCkptMagic, kCkptVersion)) {
    return fail(what);
  }
  util::FooterSpan span;
  if (const char* what = util::locate_footer(
          base + bytes.size() - util::kContainerTrailerSize, bytes.size(),
          kCkptTrailerMagic, &span)) {
    return fail(what);
  }
  if (const char* what = util::check_footer(base + span.records_end(),
                                            kCkptFooterMagic, span)) {
    return fail(what);
  }

  Cursor fc{base + span.begin, base + span.begin + span.length};
  const std::uint64_t n_sections = fc.varint();
  if (fc.fail || n_sections == 0 || n_sections > 64) {
    return fail("corrupt footer (malformed index)");
  }
  // Every section is bounds-checked before any is read.
  struct Sec {
    std::uint32_t magic;
    std::string_view record;
  };
  std::vector<Sec> secs;
  for (std::uint64_t i = 0; i < n_sections; ++i) {
    const std::uint32_t magic = fc.u32();
    const std::uint64_t offset = fc.varint();
    const std::uint64_t length = fc.varint();
    if (fc.fail ||
        !util::record_in_bounds(offset, length, span.records_end())) {
      return fail("corrupt footer (malformed index)");
    }
    secs.push_back(Sec{magic, std::string_view(bytes).substr(
                                  static_cast<std::size_t>(offset),
                                  static_cast<std::size_t>(length))});
  }

  *out = Checkpoint{};
  // RUN0 declares the grid, so it parses first regardless of file order.
  bool have_run = false;
  for (const Sec& s : secs) {
    if (s.magic != kCkptSectionRun) continue;
    Cursor c;
    if (util::check_record(s.record, s.magic, &c) != nullptr ||
        !parse_run_section(c, out)) {
      return fail("run section corrupt");
    }
    have_run = true;
    break;
  }
  if (!have_run) return fail("no run section");

  for (const Sec& s : secs) {
    Cursor c;
    if (s.magic == kCkptSectionRun) continue;
    if (util::check_record(s.record, s.magic, &c) != nullptr) {
      return fail("section CRC mismatch");
    }
    if (s.magic == kCkptSectionCells) {
      if (!parse_cells_section(c, out)) {
        return fail("cell section corrupt");
      }
    } else if (s.magic == kCkptSectionTimeline) {
      if (!parse_timeline_section(c, &out->timeline)) {
        return fail("timeline section corrupt");
      }
      out->has_timeline = true;
    } else if (s.magic == kCkptSectionTrace) {
      if (!trace_section(Get{c}, out->trace)) {
        return fail("trace section corrupt");
      }
      out->has_trace = true;
    } else if (s.magic == kCkptSectionSeq) {
      if (!seq_section(Get{c}, out->seq)) {
        return fail("seq section corrupt");
      }
      out->has_seq = true;
    } else if (s.magic == kCkptSectionAlerts) {
      if (!parse_alerts_section(c, &out->alerts_spec_json, &out->alerts)) {
        return fail("alerts section corrupt");
      }
      out->has_alerts = true;
    }
    // Unknown sections skip silently: forward compatibility.
  }
  if (out->cursor > out->total_keys) {
    return fail("cursor past its key count");
  }
  return true;
}

bool save_checkpoint(const Checkpoint& ck, const std::string& path,
                     std::string* error) {
  const std::string bytes = serialize_checkpoint(ck);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    *error = "could not open " + tmp + " for writing";
    return false;
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    *error = "could not write " + tmp + " (disk full?)";
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "could not rename " + tmp + " into place";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool load_checkpoint(const std::string& path, Checkpoint* out,
                     std::string* error) {
  std::string bytes;
  if (!util::read_file(path, &bytes, error)) return false;  // names path
  if (!parse_checkpoint(bytes, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

// --- Shard merge ------------------------------------------------------------

bool merge_checkpoints(const std::vector<Checkpoint>& parts, Checkpoint* out,
                       std::string* error) {
  if (parts.empty()) {
    *error = "no checkpoints to merge";
    return false;
  }
  const Checkpoint& first = parts[0];
  if (first.kind != 0) {
    *error = "only fixed-run checkpoints merge (sequential runs can't shard)";
    return false;
  }
  const std::uint64_t m = first.shard_count;
  if (parts.size() != m) {
    *error = "shard count mismatch: checkpoints declare " +
             std::to_string(m) + " shards, " +
             std::to_string(parts.size()) + " given";
    return false;
  }
  std::vector<bool> seen(static_cast<std::size_t>(m), false);
  std::uint64_t total = 0;
  for (const Checkpoint& p : parts) {
    if (p.kind != first.kind || p.seed != first.seed ||
        p.days != first.days || p.windows_per_day != first.windows_per_day ||
        p.sessions_per_window != first.sessions_per_window ||
        p.groups != first.groups || p.shard_count != m) {
      *error = "shard checkpoints disagree on run dimensions or groups";
      return false;
    }
    if (p.shard_index < 1 || p.shard_index > m ||
        seen[static_cast<std::size_t>(p.shard_index - 1)]) {
      *error = "shard indices must cover 1/" + std::to_string(m) + " .. " +
               std::to_string(m) + "/" + std::to_string(m) + " exactly once";
      return false;
    }
    seen[static_cast<std::size_t>(p.shard_index - 1)] = true;
    if (!p.complete()) {
      *error = "shard " + std::to_string(p.shard_index) + "/" +
               std::to_string(m) + " is incomplete (cursor " +
               std::to_string(p.cursor) + "/" + std::to_string(p.total_keys) +
               "); finish it before merging";
      return false;
    }
    if (p.has_timeline != first.has_timeline) {
      *error = "some shards carry a timeline and some do not";
      return false;
    }
    if (p.has_alerts != first.has_alerts) {
      *error = "some shards carry health-monitor state and some do not";
      return false;
    }
    if (p.has_alerts && p.alerts_spec_json != first.alerts_spec_json) {
      *error = "shard checkpoints disagree on the --alert-spec";
      return false;
    }
    total += p.total_keys;
  }
  const std::uint64_t full_grid =
      first.days * first.windows_per_day * first.sessions_per_window;
  if (total != full_grid) {
    *error = "shard key counts do not sum to the full grid";
    return false;
  }

  *out = Checkpoint{};
  out->kind = 0;
  out->seed = first.seed;
  out->days = first.days;
  out->windows_per_day = first.windows_per_day;
  out->sessions_per_window = first.sessions_per_window;
  out->shard_index = 1;
  out->shard_count = 1;
  out->total_keys = full_grid;
  out->cursor = full_grid;
  out->groups = first.groups;
  out->cells.assign(
      out->groups.size(),
      std::vector<std::vector<WindowMetrics>>(
          static_cast<std::size_t>(out->days),
          std::vector<WindowMetrics>(
              static_cast<std::size_t>(out->windows_per_day))));
  // Disjoint union: every (day, window) cell lives wholly in one shard, so
  // a second shard touching the same cell is corruption, not a merge case.
  for (const Checkpoint& p : parts) {
    for (std::size_t g = 0; g < p.cells.size(); ++g) {
      for (std::size_t d = 0; d < p.cells[g].size(); ++d) {
        for (std::size_t w = 0; w < p.cells[g][d].size(); ++w) {
          const WindowMetrics& cell = p.cells[g][d][w];
          if (cell.sessions == 0) continue;
          if (out->cells[g][d][w].sessions != 0) {
            *error = "shards overlap: cell (day " + std::to_string(d) +
                     ", window " + std::to_string(w) +
                     ") appears in two shards";
            return false;
          }
          out->cells[g][d][w] = cell;
        }
      }
    }
  }
  if (first.has_timeline) {
    out->has_timeline = true;
    out->timeline = first.timeline;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (!out->timeline.merge(parts[i].timeline)) {
        *error = "shard timelines disagree on seed, groups, or windows";
        return false;
      }
    }
  }
  // Trace state is per-file; shard trace files merge via `bba_merge
  // traces`, so the merged checkpoint deliberately carries none.
  out->has_trace = false;
  if (first.has_alerts) {
    // Sharded monitors deferred their detectors, so the per-shard states
    // carry cells only. Union the disjoint cells; the merged state stays
    // deferred with fresh detectors, and the resume render refold()s the
    // full grid in canonical order -- the unsharded run's bytes exactly.
    out->has_alerts = true;
    out->alerts_spec_json = first.alerts_spec_json;
    obs::MonitorState& st = out->alerts;
    st.deferred = true;
    st.seed = first.alerts.seed;
    st.days = static_cast<std::size_t>(first.days);
    st.windows = static_cast<std::size_t>(first.windows_per_day);
    st.groups = first.alerts.groups;
    const std::size_t g = st.groups.size();
    st.cells.assign(st.days * st.windows * g, obs::TimelineCell{});
    st.ewma.assign(g * obs::kNumMonitorMetrics, stats::EwmaState{});
    st.cusum.assign(g * obs::kNumMonitorMetrics, stats::CusumState{});
    st.burn.assign(g * obs::kNumMonitorSlos, stats::BurnState{});
    st.cand.assign(g * obs::kNumMonitorMetrics, obs::MonitorCandidates{});
    for (const Checkpoint& p : parts) {
      if (p.alerts.groups != st.groups || p.alerts.seed != st.seed ||
          p.alerts.days != st.days || p.alerts.windows != st.windows ||
          p.alerts.cells.size() != st.cells.size()) {
        *error = "shard health-monitor states disagree on the grid";
        return false;
      }
      for (std::size_t i = 0; i < st.cells.size(); ++i) {
        if (p.alerts.cells[i].empty()) continue;
        if (!st.cells[i].empty()) {
          *error = "shards overlap: health-monitor cell " +
                   std::to_string(i) + " appears in two shards";
          return false;
        }
        st.cells[i] = p.alerts.cells[i];
      }
    }
  }
  return true;
}

// --- Options ----------------------------------------------------------------

bool CheckpointOptions::parse_shard(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos) return false;
  std::uint64_t k = 0, m = 0;
  if (!util::parse_u64(std::string_view(spec).substr(0, slash), &k) ||
      !util::parse_u64(std::string_view(spec).substr(slash + 1), &m)) {
    return false;
  }
  if (k < 1 || m < 1 || k > m) return false;
  shard_index = static_cast<std::size_t>(k);
  shard_count = static_cast<std::size_t>(m);
  return true;
}

bool CheckpointOptions::consume_arg(int argc, char** argv, int& i) {
  const char* arg = argv[i];
  auto count = [&](const char* detail) {
    const char* v = util::flag_value_or_exit(argc, argv, i);
    std::uint64_t n = 0;
    if (!util::parse_u64(v, &n) || n == 0) {
      std::fprintf(stderr, "%s: expects %s, got '%s'\n", arg, detail, v);
      std::exit(2);
    }
    return static_cast<std::size_t>(n);
  };
  if (std::strcmp(arg, "--checkpoint-out") == 0) {
    out = util::flag_value_or_exit(argc, argv, i);
  } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
    every = count("a positive key count");
  } else if (std::strcmp(arg, "--resume") == 0) {
    resume = util::flag_value_or_exit(argc, argv, i);
  } else if (std::strcmp(arg, "--shard") == 0) {
    const char* v = util::flag_value_or_exit(argc, argv, i);
    if (!parse_shard(v)) {
      std::fprintf(stderr, "--shard: expects K/M with 1 <= K <= M, got '%s'\n",
                   v);
      std::exit(2);
    }
  } else if (std::strcmp(arg, "--checkpoint-kill") == 0) {
    kill_after = count("a positive save count");
  } else {
    return false;
  }
  return true;
}

const char* CheckpointOptions::usage() {
  return
      "          [--checkpoint-out FILE] [--checkpoint-every N]  write a\n"
      "            resumable bbackpt checkpoint every N keys (every round\n"
      "            when --sequential) and at the end; docs/checkpoint.md\n"
      "          [--resume FILE]  continue a checkpointed run; the output\n"
      "            is byte-identical to the uninterrupted run's\n"
      "          [--shard K/M]  run shard K of M of the (day, window) grid\n"
      "            into a partial checkpoint; merge with bba_merge\n"
      "          [--checkpoint-kill N]  test hook: exit 3 right after the\n"
      "            Nth checkpoint save\n";
}

// --- The shared save and resume protocol ----------------------------------

CheckpointInstruments CheckpointInstruments::installed(bool monitor) {
  CheckpointInstruments in;
  if (obs::Observability* o = obs::global()) {
    in.timeline = o->timeline.get();
    if (o->trace != nullptr && o->trace->ok()) in.trace = o->trace.get();
    if (monitor) in.monitor = o->monitor.get();
  }
  return in;
}

bool RunCheckpoints::check_grid(std::string* error) const {
  const bool persisted = opts.any() || instruments.timeline != nullptr ||
                         instruments.monitor != nullptr;
  return !persisted || check_checkpoint_grid(groups.size(), cfg.days, error);
}

void RunCheckpoints::begin_run() const {
  if (instruments.timeline != nullptr) {
    instruments.timeline->begin_run(cfg.seed, groups, cfg.days,
                                    kWindowsPerDay);
  }
  if (instruments.monitor != nullptr) {
    instruments.monitor->begin_run(cfg.seed, groups, cfg.days,
                                   kWindowsPerDay);
    // A shard sees only its own (day, window) subsequence, which would
    // feed the detectors a different cell order than the unsharded fold:
    // accumulate cells only, and let the merged checkpoint's resume render
    // refold() the full grid.
    instruments.monitor->set_deferred(opts.sharded());
  }
}

Checkpoint RunCheckpoints::snapshot() const {
  Checkpoint ck;
  ck.kind = kind;
  ck.seed = cfg.seed;
  ck.days = cfg.days;
  ck.windows_per_day = kWindowsPerDay;
  ck.sessions_per_window = cfg.sessions_per_window;
  ck.shard_index = opts.shard_index;
  ck.shard_count = opts.shard_count;
  ck.groups = groups;
  const CheckpointInstruments& in = instruments;
  if (in.timeline != nullptr && in.timeline->configured()) {
    ck.has_timeline = true;
    ck.timeline = *in.timeline;
  }
  if (in.trace != nullptr) {
    ck.has_trace = true;
    ck.trace = in.trace->resume_state();  // flushes first
  }
  if (in.monitor != nullptr && in.monitor->configured()) {
    ck.has_alerts = true;
    ck.alerts = in.monitor->state();
    ck.alerts_spec_json = in.monitor->spec().to_json();
  }
  return ck;
}

bool RunCheckpoints::save(const Checkpoint& ck, const std::string& progress,
                          std::string* error) {
  if (!save_checkpoint(ck, opts.out, error)) return false;
  std::fprintf(stderr, "checkpoint: wrote %s (%s)\n", opts.out.c_str(),
               progress.c_str());
  if (opts.kill_after != 0 && ++saves >= opts.kill_after) {
    std::fprintf(stderr,
                 "checkpoint: --checkpoint-kill %llu reached, exiting\n",
                 static_cast<unsigned long long>(opts.kill_after));
    std::_Exit(3);
  }
  return true;
}

bool RunCheckpoints::load(Checkpoint* ck, std::string* error) const {
  if (!load_checkpoint(opts.resume, ck, error)) return false;
  if (ck->kind != kind || (kind == 1 && !ck->has_seq)) {
    *error = opts.resume + (kind == 0 ? " checkpoints a sequential run; "
                                        "resume it with --sequential"
                                      : " checkpoints a fixed-budget run; "
                                        "resume it without --sequential");
    return false;
  }
  if (ck->seed != cfg.seed || ck->days != cfg.days ||
      ck->windows_per_day != kWindowsPerDay ||
      ck->sessions_per_window != cfg.sessions_per_window) {
    *error = opts.resume +
             " was checkpointed with different run dimensions or seed";
    return false;
  }
  if (ck->groups != groups) {
    *error = opts.resume + " was checkpointed with different groups";
    return false;
  }
  return true;
}

bool RunCheckpoints::restore(Checkpoint& ck, const std::string& progress,
                             std::string* error) const {
  auto missing = [&](const char* flag, const char* section) {
    *error = std::string(flag) + " is set but " + opts.resume + " has no " +
             section + " section (was the original run started without " +
             flag + "?)";
    return false;
  };
  const CheckpointInstruments& in = instruments;
  if (in.timeline != nullptr) {
    if (!ck.has_timeline) return missing("--timeline-out", "timeline");
    *in.timeline = ck.timeline;
  }
  if (in.trace != nullptr) {
    if (!ck.has_trace) return missing("--trace-out", "trace");
    if (!in.trace->resume_from(ck.trace, error)) return false;
  }
  if (in.monitor != nullptr) {
    if (!ck.has_alerts) return missing("--alerts-out", "alerts");
    if (ck.alerts_spec_json != in.monitor->spec().to_json()) {
      *error = opts.resume +
               " was checkpointed with a different --alert-spec (" +
               ck.alerts_spec_json + "); resuming with new detector "
               "parameters would change the fired alerts";
      return false;
    }
    in.monitor->restore(std::move(ck.alerts));
    // A merged (sharded) checkpoint carries deferred cells; an unsharded
    // resume render folds them through the detectors now, in canonical
    // order -- the unsharded run's alert bytes exactly.
    if (in.monitor->deferred() && !opts.sharded()) in.monitor->refold();
  }
  std::fprintf(stderr, "checkpoint: resumed %s at %s\n", opts.resume.c_str(),
               progress.c_str());
  return true;
}

// --- The checkpointed harness ----------------------------------------------

std::uint64_t shard_key_count(const AbTestConfig& cfg,
                              const CheckpointOptions& opts) {
  const std::uint64_t cells = cfg.days * kWindowsPerDay;
  const std::uint64_t first_cell = opts.shard_index - 1;
  if (cells <= first_cell) return 0;
  const std::uint64_t shard_cells =
      (cells - first_cell + opts.shard_count - 1) / opts.shard_count;
  return shard_cells * cfg.sessions_per_window;
}

SessionKey shard_key(const AbTestConfig& cfg, const CheckpointOptions& opts,
                     std::uint64_t index) {
  BBA_ASSERT(index < shard_key_count(cfg, opts),
             "key index past the shard's key count");
  const std::uint64_t spw = cfg.sessions_per_window;
  const std::uint64_t cell =
      (index / spw) * opts.shard_count + opts.shard_index - 1;
  return SessionKey{cfg.seed, static_cast<std::size_t>(cell / kWindowsPerDay),
                    static_cast<std::size_t>(cell % kWindowsPerDay),
                    static_cast<std::size_t>(index % spw)};
}

bool run_ab_test_checkpointed(const std::vector<Group>& groups,
                              const media::VideoLibrary& library,
                              const AbTestConfig& cfg,
                              const CheckpointOptions& opts,
                              AbTestResult* result, std::string* error) {
  BBA_ASSERT(!groups.empty(), "at least one group required");
  BBA_ASSERT(cfg.days >= 1 && cfg.sessions_per_window >= 1,
             "experiment dimensions must be >= 1");
  BBA_ASSERT(opts.shard_index >= 1 && opts.shard_index <= opts.shard_count,
             "--shard index must lie in 1..count");
  std::string scratch_error;
  if (error == nullptr) error = &scratch_error;
  std::vector<std::string> names;
  names.reserve(groups.size());
  for (const auto& g : groups) names.push_back(g.name);
  RunCheckpoints checkpoints{
      0, cfg, opts, std::move(names),
      CheckpointInstruments::installed(/*monitor=*/true)};
  if (!checkpoints.check_grid(error)) return false;

  obs::Observability* o = obs::global();
  obs::ScopedTimer run_span(o != nullptr ? o->profiler.get() : nullptr, 0,
                            "run_ab_test");

  *result = AbTestResult{};
  result->group_names = checkpoints.groups;
  result->cells.assign(
      groups.size(),
      std::vector<std::vector<WindowMetrics>>(
          cfg.days, std::vector<WindowMetrics>(kWindowsPerDay)));

  // The canonical key sequence, filtered to this shard's (day, window)
  // cells. A cell's sessions all share one shard, so each cell's fold
  // order -- and therefore its order-sensitive incremental means -- is
  // identical to the unsharded run's. Keys are derived from their index
  // (shard_key) as the runner simulates them; no key list is built.
  const std::uint64_t total = shard_key_count(cfg, opts);

  obs::TimelineAggregator* timeline = checkpoints.instruments.timeline;
  obs::HealthMonitor* monitor = checkpoints.instruments.monitor;
  checkpoints.begin_run();

  std::uint64_t cursor = 0;
  auto progress = [&] {
    return "key " + std::to_string(cursor) + "/" + std::to_string(total);
  };
  if (opts.resuming()) {
    Checkpoint ck;
    if (!checkpoints.load(&ck, error)) return false;
    if (ck.shard_index != opts.shard_index ||
        ck.shard_count != opts.shard_count) {
      // A complete merged checkpoint (shard 1/1, cursor at total) may be
      // rendered by an unsharded resume; anything else must match.
      if (!(ck.shard_count == 1 && opts.shard_count == 1)) {
        *error = opts.resume + " was checkpointed for shard " +
                 std::to_string(ck.shard_index) + "/" +
                 std::to_string(ck.shard_count) +
                 ", this run is shard " + std::to_string(opts.shard_index) +
                 "/" + std::to_string(opts.shard_count);
        return false;
      }
    }
    if (ck.total_keys != total) {
      *error = opts.resume + " covers a different key count";
      return false;
    }
    result->cells = std::move(ck.cells);
    cursor = ck.cursor;
    if (!checkpoints.restore(ck, progress(), error)) return false;
  }

  SessionBlockRunner runner(groups, library, cfg);
  const std::uint64_t start = cursor;
  auto save_now = [&]() -> bool {
    Checkpoint ck = checkpoints.snapshot();
    ck.total_keys = total;
    ck.cursor = cursor;
    ck.cells = result->cells;
    return checkpoints.save(ck, progress(), error);
  };

  // The chunk loop: blocks of --checkpoint-every keys when checkpoints are
  // written, else the rest of the run in one block. run() is block-split
  // invariant (exp/block.hpp), so chunking for --checkpoint-every changes
  // no output byte; a resumed run simply enters with cursor > 0 and folds
  // the remaining suffix.
  const std::uint64_t block_keys =
      (!opts.out.empty() && opts.every != 0) ? opts.every : total;
  while (cursor < total) {
    const std::uint64_t first = cursor;
    const std::size_t n =
        static_cast<std::size_t>(std::min(block_keys, total - cursor));
    auto key_at = [&](std::size_t i) {
      return shard_key(cfg, opts, first + i);
    };
    runner.run(n, key_at, [&](std::size_t i, std::size_t g,
                              const sim::SessionMetrics& m) {
      const SessionKey key = key_at(i);
      accumulate_session(result->cells[g][key.day][key.window], m);
      if (timeline != nullptr) {
        timeline->record(key.day, key.window, g, m);
      }
      if (monitor != nullptr) {
        monitor->record(key.day, key.window, g, key.session, m);
      }
    });
    cursor += n;
    BBA_ASSERT(runner.keys_folded() == cursor - start,
               "executor fold cursor out of sync with the chunk loop");
    if (!opts.out.empty() && cursor < total) {
      if (!save_now()) return false;
    }
  }
  // The grid is complete: close the trailing cell and drain the capture
  // queue BEFORE the trace finishes and before the final checkpoint save.
  // Draining once at the end (not per chunk) makes the captured trace
  // bytes independent of --checkpoint-every chunking, and draining before
  // the save means a completed checkpoint re-render has nothing pending --
  // re-rendering never duplicates captures.
  if (monitor != nullptr && !opts.sharded()) {
    monitor->finalize();
    for (const obs::MonitorCapture& cap : monitor->take_captures()) {
      runner.capture_session(
          SessionKey{cfg.seed, static_cast<std::size_t>(cap.day),
                     static_cast<std::size_t>(cap.window),
                     static_cast<std::size_t>(cap.session)},
          static_cast<std::size_t>(cap.group), cap.marker);
    }
  }
  runner.finish();
  if (!opts.out.empty()) {
    if (!save_now()) return false;
  }
  return true;
}

}  // namespace bba::exp
