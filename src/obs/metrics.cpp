#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <new>

#include "util/assert.hpp"

namespace bba::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kSessions: return "sessions";
    case Counter::kSessionsAbandoned: return "sessions_abandoned";
    case Counter::kChunksDownloaded: return "chunks_downloaded";
    case Counter::kRebuffers: return "rebuffers";
    case Counter::kRateSwitches: return "rate_switches";
    case Counter::kOffPeriods: return "off_periods";
    case Counter::kReservoirMemoHits: return "reservoir_memo_hits";
    case Counter::kReservoirMemoBuilds: return "reservoir_memo_builds";
    case Counter::kCursorQueries: return "cursor_queries";
    case Counter::kCursorRewinds: return "cursor_rewinds";
    case Counter::kPoolLoops: return "pool_loops";
    case Counter::kPoolChunksClaimed: return "pool_chunks_claimed";
    case Counter::kSeqBatches: return "seq_batches";
    case Counter::kSeqSessions: return "seq_sessions";
    case Counter::kSeqSessionsSaved: return "seq_sessions_saved";
    case Counter::kCount: break;
  }
  return "unknown";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kDownloadSeconds: return "download_seconds";
    case Hist::kStallSeconds: return "stall_seconds";
    case Hist::kOffWaitSeconds: return "off_wait_seconds";
    case Hist::kExecutorBacklog: return "executor_backlog";
    case Hist::kCount: break;
  }
  return "unknown";
}

double HistSlot::bucket_edge(int i) {
  return std::ldexp(1.0, i - kBucketBias);
}

double MetricsSnapshot::HistValues::percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1) + 0.5);
  std::uint64_t cum = 0;
  for (int b = 0; b < HistSlot::kBuckets; ++b) {
    cum += buckets[b];
    if (rank < cum) return HistSlot::bucket_edge(b);
  }
  return HistSlot::bucket_edge(HistSlot::kBuckets - 1);
}

MetricsRegistry::MetricsRegistry(std::size_t slots)
    : slots_(nullptr), num_slots_(slots == 0 ? 1 : slots) {
  slots_ = new Slot[num_slots_]();
}

MetricsRegistry::~MetricsRegistry() { delete[] slots_; }

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (std::size_t s = 0; s < num_slots_; ++s) {
    const Slot& slot = slots_[s];
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      snap.counters[c] += slot.counters[c].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kNumHists; ++h) {
      const HistSlot& hs = slot.hists[h];
      auto& out = snap.hists[h];
      for (int b = 0; b < HistSlot::kBuckets; ++b) {
        out.buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
      }
      out.count += hs.count.load(std::memory_order_relaxed);
      out.sum += static_cast<double>(
                     hs.sum_micro.load(std::memory_order_relaxed)) *
                 1e-6;
    }
  }
  return snap;
}

std::string MetricsSnapshot::to_json(const std::string& extra_json) const {
  std::string out = "{\"counters\":{";
  char buf[160];
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%llu", c == 0 ? "" : ",",
                  counter_name(static_cast<Counter>(c)),
                  static_cast<unsigned long long>(counters[c]));
    out += buf;
  }
  out += "},\"histograms\":{";
  for (std::size_t h = 0; h < kNumHists; ++h) {
    const HistValues& hv = hists[h];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"count\":%llu,\"sum\":%.6f,",
                  h == 0 ? "" : ",", hist_name(static_cast<Hist>(h)),
                  static_cast<unsigned long long>(hv.count), hv.sum);
    out += buf;
    out += "\"buckets\":[";
    bool first = true;
    for (int b = 0; b < HistSlot::kBuckets; ++b) {
      if (hv.buckets[b] == 0) continue;
      std::snprintf(buf, sizeof buf, "%s[%.9g,%llu]", first ? "" : ",",
                    HistSlot::bucket_edge(b),
                    static_cast<unsigned long long>(hv.buckets[b]));
      out += buf;
      first = false;
    }
    out += "]}";
  }
  out += "}";
  if (!extra_json.empty()) {
    out += ",";
    out += extra_json;
  }
  out += "}";
  return out;
}

std::string MetricsSnapshot::to_text() const {
  std::string out;
  char buf[160];
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    if (counters[c] == 0) continue;
    std::snprintf(buf, sizeof buf, "%-24s %llu\n",
                  counter_name(static_cast<Counter>(c)),
                  static_cast<unsigned long long>(counters[c]));
    out += buf;
  }
  for (std::size_t h = 0; h < kNumHists; ++h) {
    const HistValues& hv = hists[h];
    if (hv.count == 0) continue;
    std::snprintf(buf, sizeof buf,
                  "%-24s count=%llu mean=%.6g p50=%.3g p90=%.3g p99=%.3g\n",
                  hist_name(static_cast<Hist>(h)),
                  static_cast<unsigned long long>(hv.count),
                  hv.sum / static_cast<double>(hv.count),
                  hv.percentile(0.50), hv.percentile(0.90),
                  hv.percentile(0.99));
    out += buf;
  }
  return out;
}

}  // namespace bba::obs
