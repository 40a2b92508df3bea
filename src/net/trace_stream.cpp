#include "net/trace_stream.hpp"

#include "util/assert.hpp"

namespace bba::net {

void TraceStream::grow() {
  const std::size_t cap = std::max<std::size_t>(256, 2 * rate_buf.size());
  tp_buf.resize(cap + 1);
  bp_buf.resize(cap + 1);
  rate_buf.resize(cap);
  tp = tp_buf.data();
  bp = bp_buf.data();
  rate = rate_buf.data();
}

void TraceStream::reset(const MarkovTraceConfig& cfg, util::Rng r) {
  BBA_ASSERT(cfg.median_bps > 0.0, "median capacity must be > 0");
  BBA_ASSERT(cfg.duration_s > 0.0, "trace duration must be > 0");
  BBA_ASSERT(cfg.mean_dwell_s > 0.0, "mean dwell must be > 0");
  duration_s = cfg.duration_s;
  mean_dwell_s = cfg.mean_dwell_s;
  mu = std::log(cfg.median_bps);
  sigma = cfg.sigma_log;
  min_bps = cfg.min_bps;
  max_bps = cfg.max_bps;
  rng = r;
  base_t = 0.0;
  if (rate_buf.empty()) grow();
  n = 0;
  tp[0] = 0.0;
  bp[0] = 0.0;
  done = false;
  loops = true;
  cycle_s = cycle_bits = 0.0;
}

void TraceStream::assign(const CapacityTrace& trace) {
  const std::vector<CapacityTrace::Segment>& segments = trace.segments();
  while (rate_buf.size() < segments.size()) grow();
  n = segments.size();
  std::copy(trace.time_prefix().begin(), trace.time_prefix().end(), tp);
  std::copy(trace.bits_prefix_table().begin(),
            trace.bits_prefix_table().end(), bp);
  for (std::size_t i = 0; i < n; ++i) rate[i] = segments[i].rate_bps;
  done = true;
  loops = trace.loops();
  cycle_s = trace.cycle_duration_s();
  cycle_bits = trace.cycle_bits();
}

void TraceStream::step_one() {
  if (base_t >= duration_s) {
    done = true;
    cycle_s = tp[n];
    cycle_bits = bp[n];
    return;
  }
  // Exact make_markov_trace_into draw order: dwell, then level.
  const double dwell = std::max(0.5, rng.exponential(mean_dwell_s));
  const double level = std::clamp(rng.lognormal(mu, sigma), min_bps, max_bps);
  base_t += dwell;
  if (n == rate_buf.size()) grow();
  rate[n] = level;
  tp[n + 1] = tp[n] + dwell;
  bp[n + 1] = bp[n] + level * dwell;
  ++n;
}

}  // namespace bba::net
