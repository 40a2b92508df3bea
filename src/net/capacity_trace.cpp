#include "net/capacity_trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace bba::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

CapacityTrace::CapacityTrace(std::vector<Segment> segments, bool loop) {
  assign(segments, loop);
}

void CapacityTrace::assign(std::vector<Segment>& segments, bool loop) {
  BBA_ASSERT(!segments.empty(), "CapacityTrace requires segments");
  segments_.swap(segments);
  loop_ = loop;
  time_prefix_.clear();
  bits_prefix_.clear();
  time_prefix_.reserve(segments_.size() + 1);
  bits_prefix_.reserve(segments_.size() + 1);
  time_prefix_.push_back(0.0);
  bits_prefix_.push_back(0.0);
  for (const auto& seg : segments_) {
    BBA_ASSERT(seg.duration_s > 0.0, "segment duration must be > 0");
    BBA_ASSERT(seg.rate_bps >= 0.0, "segment rate must be >= 0");
    time_prefix_.push_back(time_prefix_.back() + seg.duration_s);
    bits_prefix_.push_back(bits_prefix_.back() +
                           seg.rate_bps * seg.duration_s);
  }
  cycle_s_ = time_prefix_.back();
  cycle_bits_ = bits_prefix_.back();
}

CapacityTrace CapacityTrace::constant(double rate_bps) {
  return CapacityTrace({Segment{1.0, rate_bps}}, /*loop=*/true);
}

std::size_t CapacityTrace::segment_index_at(double t_s) const {
  // Last prefix <= t: upper_bound finds the first prefix > t. t == cycle_s_
  // (and only it, given t <= cycle_s_) lands past the last segment and is
  // clamped onto it.
  const auto it =
      std::upper_bound(time_prefix_.begin(), time_prefix_.end(), t_s);
  const auto idx = static_cast<std::size_t>(
      std::distance(time_prefix_.begin(), it)) - 1;
  return std::min(idx, segments_.size() - 1);
}

double CapacityTrace::rate_at_bps(double t_s) const {
  BBA_ASSERT(t_s >= 0.0, "time must be >= 0");
  if (t_s >= cycle_s_) {
    if (!loop_) return 0.0;
    t_s = std::fmod(t_s, cycle_s_);
  }
  return segments_[segment_index_at(t_s)].rate_bps;
}

double CapacityTrace::bits_prefix(double t_s) const {
  t_s = std::clamp(t_s, 0.0, cycle_s_);
  const std::size_t idx = segment_index_at(t_s);
  return bits_prefix_[idx] +
         segments_[idx].rate_bps * (t_s - time_prefix_[idx]);
}

double CapacityTrace::bits_between(double t0_s, double t1_s) const {
  BBA_ASSERT(t0_s >= 0.0 && t1_s >= t0_s, "require 0 <= t0 <= t1");
  if (!loop_) {
    return bits_prefix(std::min(t1_s, cycle_s_)) -
           bits_prefix(std::min(t0_s, cycle_s_));
  }
  auto bits_to = [this](double t) {
    const double cycles = std::floor(t / cycle_s_);
    return cycles * cycle_bits_ + bits_prefix(t - cycles * cycle_s_);
  };
  return bits_to(t1_s) - bits_to(t0_s);
}

double CapacityTrace::finish_time_s(double start_s, double bits) const {
  BBA_ASSERT(start_s >= 0.0, "start time must be >= 0");
  BBA_ASSERT(bits >= 0.0, "bits must be >= 0");
  if (bits == 0.0) return start_s;

  // Position within the cycle (or past the end for non-looping traces).
  double cycles_done = 0.0;
  double pos = start_s;
  if (loop_ && pos >= cycle_s_) {
    cycles_done = std::floor(pos / cycle_s_);
    pos -= cycles_done * cycle_s_;
  }
  if (!loop_ && pos >= cycle_s_) return kInf;

  double remaining = bits;
  // Finish the partial cycle from `pos`.
  {
    const double avail = cycle_bits_ - bits_prefix(pos);
    if (avail < remaining) {
      if (!loop_) return kInf;
      remaining -= avail;
      cycles_done += 1.0;
      pos = 0.0;
      // Skip whole cycles.
      if (cycle_bits_ <= 0.0) return kInf;  // permanent outage
      const double whole = std::floor(remaining / cycle_bits_);
      // Guard the exact-multiple case: keep at least a hair of work for the
      // in-cycle walk below.
      if (whole > 0.0 && whole * cycle_bits_ < remaining) {
        cycles_done += whole;
        remaining -= whole * cycle_bits_;
      } else if (whole > 0.0) {
        cycles_done += whole - 1.0;
        remaining -= (whole - 1.0) * cycle_bits_;
      }
    }
  }

  // Walk segments inside the current cycle until `remaining` is delivered.
  // `pos` is within [0, cycle_s_).
  std::size_t idx = segment_index_at(pos);
  double t = pos;
  while (true) {
    const Segment& seg = segments_[idx];
    const double seg_end = time_prefix_[idx + 1];
    const double span = seg_end - t;
    const double avail = seg.rate_bps * span;
    if (avail >= remaining && seg.rate_bps > 0.0) {
      t += remaining / seg.rate_bps;
      return cycles_done * cycle_s_ + t;
    }
    remaining -= avail;
    t = seg_end;
    ++idx;
    if (idx == segments_.size()) {
      if (!loop_) return kInf;
      idx = 0;
      t = 0.0;
      cycles_done += 1.0;
      if (cycle_bits_ <= 0.0) return kInf;
    }
  }
}

double CapacityTrace::min_rate_bps() const {
  double m = segments_.front().rate_bps;
  for (const auto& s : segments_) m = std::min(m, s.rate_bps);
  return m;
}

double CapacityTrace::max_rate_bps() const {
  double m = segments_.front().rate_bps;
  for (const auto& s : segments_) m = std::max(m, s.rate_bps);
  return m;
}

}  // namespace bba::net
