#include "obs/timeline.hpp"

#include "obs/trace_jsonl.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/text_scanner.hpp"

namespace bba::obs {

using jsonl::append_u64;

void TimelineAggregator::begin_run(std::uint64_t seed,
                                   const std::vector<std::string>& groups,
                                   std::size_t days,
                                   std::size_t windows_per_day) {
  BBA_ASSERT(!groups.empty(), "timeline needs at least one group");
  BBA_ASSERT(days >= 1 && windows_per_day >= 1,
             "timeline grid dimensions must be >= 1");
  if (!configured()) {
    seed_ = seed;
    days_ = days;
    windows_ = windows_per_day;
    groups_ = groups;
    cells_.assign(days_ * windows_ * groups_.size(), TimelineCell{});
    sketches_.assign(groups_.size(), GroupSketches{});
    return;
  }
  BBA_ASSERT(seed_ == seed && windows_ == windows_per_day &&
                 groups_ == groups,
             "timeline begin_run mismatch (seed/groups/windows changed)");
  if (days > days_) {
    days_ = days;
    cells_.resize(days_ * windows_ * groups_.size());
  }
}

void TimelineAggregator::record(std::size_t day, std::size_t window,
                                std::size_t group,
                                const sim::SessionMetrics& m) {
  BBA_ASSERT(configured(), "timeline record before begin_run");
  BBA_ASSERT(window < windows_ && group < groups_.size(),
             "timeline record out of range");
  if (day >= days_) {
    // The sequential engine can outrun its declared grid when reallocated
    // budget draws deeper keys; growing here is a cold, bounded event.
    days_ = day + 1;
    cells_.resize(days_ * windows_ * groups_.size());
  }
  cells_[cell_index(day, window, group)].fold(m);

  GroupSketches& s = sketches_[group];
  s.rate_bps.add(m.avg_rate_bps);
  s.join_s.add(m.join_s);
  s.buffer_s.add(m.avg_buffer_s);
}

bool TimelineAggregator::merge(const TimelineAggregator& other) {
  if (!other.configured()) return true;  // empty shard: nothing to fold
  if (!configured()) {
    *this = other;
    return true;
  }
  if (seed_ != other.seed_ || windows_ != other.windows_ ||
      groups_ != other.groups_) {
    return false;
  }
  if (other.days_ > days_) {
    days_ = other.days_;
    cells_.resize(days_ * windows_ * groups_.size());
  }
  for (std::size_t day = 0; day < other.days_; ++day) {
    for (std::size_t w = 0; w < windows_; ++w) {
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        cells_[cell_index(day, w, g)].merge(
            other.cells_[other.cell_index(day, w, g)]);
      }
    }
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (std::size_t m = 0; m < kNumTimelineSketches; ++m) {
      sketches_[g].at(m).merge(other.sketches_[g].at(m));
    }
  }
  return true;
}

const TimelineCell& TimelineAggregator::cell(std::size_t day,
                                             std::size_t window,
                                             std::size_t group) const {
  BBA_ASSERT(day < days_ && window < windows_ && group < groups_.size(),
             "timeline cell out of range");
  return cells_[cell_index(day, window, group)];
}

const GroupSketches& TimelineAggregator::sketches(std::size_t group) const {
  BBA_ASSERT(group < groups_.size(), "timeline group out of range");
  return sketches_[group];
}

TimelineCell& TimelineAggregator::mutable_cell(std::size_t day,
                                               std::size_t window,
                                               std::size_t group) {
  BBA_ASSERT(day < days_ && window < windows_ && group < groups_.size(),
             "timeline cell out of range");
  return cells_[cell_index(day, window, group)];
}

GroupSketches& TimelineAggregator::mutable_sketches(std::size_t group) {
  BBA_ASSERT(group < groups_.size(), "timeline group out of range");
  return sketches_[group];
}

TimelineCell TimelineAggregator::group_total(std::size_t group) const {
  BBA_ASSERT(group < groups_.size(), "timeline group out of range");
  TimelineCell total;
  for (std::size_t day = 0; day < days_; ++day) {
    for (std::size_t w = 0; w < windows_; ++w) {
      total.merge(cells_[cell_index(day, w, group)]);
    }
  }
  return total;
}

std::string TimelineAggregator::to_json() const {
  std::string out = "{\"schema\":\"bba.timeline.v1\",\"seed\":";
  append_u64(out, seed_);
  out += ",\"days\":";
  append_u64(out, days_);
  out += ",\"windows_per_day\":";
  append_u64(out, windows_);
  out += ",\"groups\":[";
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (g != 0) out += ',';
    out += '"';
    out += groups_[g];
    out += '"';
  }
  out += "],\"cells\":[";
  bool first = true;
  for (std::size_t day = 0; day < days_; ++day) {
    for (std::size_t w = 0; w < windows_; ++w) {
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        const TimelineCell& c = cells_[cell_index(day, w, g)];
        if (c.empty()) continue;
        if (!first) out += ',';
        first = false;
        out += "{\"day\":";
        append_u64(out, day);
        out += ",\"window\":";
        append_u64(out, w);
        out += ",\"group\":";
        append_u64(out, g);
        out += ",\"sessions\":";
        append_u64(out, c.sessions);
        out += ",\"abandoned\":";
        append_u64(out, c.abandoned);
        out += ",\"rebuffers\":";
        append_u64(out, c.rebuffers);
        out += ",\"fault_stalls\":";
        append_u64(out, c.fault_stalls);
        out += ",\"switches\":";
        append_u64(out, c.switches);
        out += ",\"play_micro\":";
        append_u64(out, c.play_micro);
        out += ",\"rebuffer_micro\":";
        append_u64(out, c.rebuffer_micro);
        out += ",\"join_micro\":";
        append_u64(out, c.join_micro);
        out += ",\"rate_play_kbit\":";
        append_u64(out, c.rate_play_kbit);
        out += '}';
      }
    }
  }
  out += "],\"sketches\":[";
  first = true;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (std::size_t m = 0; m < kNumTimelineSketches; ++m) {
      if (!first) out += ',';
      first = false;
      out += "{\"group\":";
      append_u64(out, g);
      out += ",\"metric\":\"";
      out += kTimelineSketchNames[m];
      out += "\",";
      sketches_[g].at(m).append_json(out);
      out += '}';
    }
  }
  out += "]}";
  return out;
}

bool grid_fits(std::uint64_t groups, std::uint64_t days,
               std::uint64_t windows) {
  return groups != 0 && groups <= 4096 && days != 0 && days <= (1u << 20) &&
         windows != 0 && windows <= (1u << 16) &&
         groups * days * windows <= kMaxGridCells;
}

bool parse_timeline(std::string_view text, const std::string& name,
                    TimelineAggregator* out, std::string* error) {
  BBA_ASSERT(!out->configured(), "parse_timeline into a configured grid");
  auto fail = [&](const std::string& why) {
    *error = name + ": " + why;
    return false;
  };
  const std::string_view body =
      !text.empty() && text.back() == '\n' ? text.substr(0, text.size() - 1)
                                            : text;
  util::TextScanner s(body);
  std::uint64_t seed = 0, days = 0, windows = 0;
  std::vector<std::string> groups;
  bool ok = s.lit("{\"schema\":\"bba.timeline.v1\",\"seed\":") &&
            s.u64(&seed) && s.lit(",\"days\":") && s.u64(&days) &&
            s.lit(",\"windows_per_day\":") && s.u64(&windows) &&
            s.lit(",\"groups\":[");
  while (ok && !s.peek(']')) {
    ok = (groups.empty() || s.lit(",")) && s.quoted(&groups.emplace_back());
  }
  ok = ok && s.lit("],\"cells\":[");
  if (ok && !grid_fits(groups.size(), days, windows)) {
    return fail("grid of " + std::to_string(groups.size()) + " groups x " +
                std::to_string(days) + " days x " + std::to_string(windows) +
                " windows is empty or too large");
  }
  if (ok) {
    out->begin_run(seed, groups, static_cast<std::size_t>(days),
                   static_cast<std::size_t>(windows));
  }
  bool first = true;
  while (ok && !s.peek(']')) {
    std::uint64_t day = 0, window = 0, group = 0;
    ok = (first || s.lit(",")) && s.lit("{\"day\":") && s.u64(&day) &&
         s.lit(",\"window\":") && s.u64(&window) &&
         s.lit(",\"group\":") && s.u64(&group);
    first = false;
    if (ok && (day >= days || window >= windows || group >= groups.size())) {
      return fail("cell indices out of range");
    }
    if (!ok) break;
    TimelineCell& c = out->mutable_cell(static_cast<std::size_t>(day),
                                        static_cast<std::size_t>(window),
                                        static_cast<std::size_t>(group));
    ok = s.lit(",\"sessions\":") && s.u64(&c.sessions) &&
         s.lit(",\"abandoned\":") && s.u64(&c.abandoned) &&
         s.lit(",\"rebuffers\":") && s.u64(&c.rebuffers) &&
         s.lit(",\"fault_stalls\":") && s.u64(&c.fault_stalls) &&
         s.lit(",\"switches\":") && s.u64(&c.switches) &&
         s.lit(",\"play_micro\":") && s.u64(&c.play_micro) &&
         s.lit(",\"rebuffer_micro\":") && s.u64(&c.rebuffer_micro) &&
         s.lit(",\"join_micro\":") && s.u64(&c.join_micro) &&
         s.lit(",\"rate_play_kbit\":") && s.u64(&c.rate_play_kbit) &&
         s.lit("}");
  }
  ok = ok && s.lit("],\"sketches\":[");
  first = true;
  while (ok && !s.peek(']')) {
    std::uint64_t group = 0, zero = 0, count = 0;
    std::string metric;
    ok = (first || s.lit(",")) && s.lit("{\"group\":") && s.u64(&group) &&
         s.lit(",\"metric\":") && s.quoted(&metric) &&
         s.lit(",\"zero\":") && s.u64(&zero) && s.lit(",\"count\":") &&
         s.u64(&count) && s.lit(",\"buckets\":[");
    first = false;
    std::size_t m = 0;
    while (m < kNumTimelineSketches && metric != kTimelineSketchNames[m]) ++m;
    if (ok && (group >= groups.size() || m == kNumTimelineSketches)) {
      return fail("unknown sketch group/metric");
    }
    if (!ok) break;
    stats::QuantileSketch& sk =
        out->mutable_sketches(static_cast<std::size_t>(group)).at(m);
    sk.add_zero(zero);
    bool first_bucket = true;
    while (ok && !s.peek(']')) {
      std::uint64_t bucket = 0, n = 0;
      ok = (first_bucket || s.lit(",")) && s.lit("[") && s.u64(&bucket) &&
           s.lit(",") && s.u64(&n) && s.lit("]");
      first_bucket = false;
      if (ok && bucket >= stats::QuantileSketch::kBuckets) {
        return fail("sketch bucket out of range");
      }
      if (ok) sk.add_bucket(static_cast<int>(bucket), n);
    }
    ok = ok && s.lit("]}");
  }
  ok = ok && s.lit("]}");
  if (ok && !s.at_end()) return fail("trailing data after the document");
  if (!ok) return fail(s.error());
  // The writer's bytes are a pure function of the state, so anything the
  // scan accepted that the writer would not emit shows up here.
  if (out->to_json() != body) {
    return fail("not the writer's canonical form (a duplicate, out-of-order "
                "or empty cell, or a sketch count its buckets do not sum "
                "to)");
  }
  return true;
}

bool load_timeline(const std::string& path, TimelineAggregator* out,
                   std::string* error) {
  std::string text;
  return util::read_file(path, &text, error) &&
         parse_timeline(text, path, out, error);
}

}  // namespace bba::obs
