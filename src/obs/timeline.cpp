#include "obs/timeline.hpp"

#include "obs/trace_jsonl.hpp"
#include "util/assert.hpp"

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
    sketches_[g].rate_bps.merge(other.sketches_[g].rate_bps);
    sketches_[g].join_s.merge(other.sketches_[g].join_s);
    sketches_[g].buffer_s.merge(other.sketches_[g].buffer_s);
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
  static constexpr const char* kMetricNames[] = {"rate_bps", "join_s",
                                                 "buffer_s"};
  first = true;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const stats::QuantileSketch* ms[] = {&sketches_[g].rate_bps,
                                         &sketches_[g].join_s,
                                         &sketches_[g].buffer_s};
    for (std::size_t m = 0; m < 3; ++m) {
      if (!first) out += ',';
      first = false;
      out += "{\"group\":";
      append_u64(out, g);
      out += ",\"metric\":\"";
      out += kMetricNames[m];
      out += "\",";
      ms[m]->append_json(out);
      out += '}';
    }
  }
  out += "]}";
  return out;
}

}  // namespace bba::obs
