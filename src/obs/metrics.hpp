// Lock-free, slot-sharded metrics registry for the harness hot path.
//
// The A/B harness simulates millions of sessions on worker threads that own
// a stable slot index (runtime::ThreadPool's slot contract). The registry
// mirrors that layout: one cache-line-padded Slot of counters and
// log-bucketed histograms per executor slot, written with relaxed atomics
// (each slot is touched by one thread at a time, so there is never
// contention) and summed into a single snapshot when the harness exits.
//
// Instrumentation sites (sim/simulate.hpp, which also flushes the trace
// cursor's tallies, media/chunk_table.cpp, runtime/thread_pool.cpp) do not
// receive a registry pointer -- their signatures are hot-path API and must
// not grow. Instead a thread-local pointer is bound around each unit of work
// (obs::SlotBinding); counting with no binding in place is a single
// predictable branch and no store, which is what keeps observability
// compiled-in but free when disabled: bit-identical results and zero
// steady-state allocations (bench/micro_session_hot_path enforces both).
//
// When a binding IS in place, the instrumentation sites fire per chunk
// inside a loop that runs a few hundred nanoseconds per chunk, so even an
// uncontended `lock add` per event is too expensive. The binding therefore
// carries a private, non-atomic LocalSlot on its own stack frame; events
// are plain integer adds, and the buffer is merged into the shared
// registry shard (with relaxed atomics) once, when the binding is
// destroyed. That keeps the enabled-path cost within the <5% sessions/sec
// budget the hot-path bench tracks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace bba::obs {

/// Monotonic event counters. Names (for snapshots) live in counter_name().
enum class Counter : std::size_t {
  kSessions = 0,          ///< simulated sessions completed
  kSessionsAbandoned,     ///< sessions that ended in abandon / give-up
  kChunksDownloaded,      ///< chunk downloads completed
  kRebuffers,             ///< playback stalls
  kRateSwitches,          ///< rate changes between adjacent chunks
  kOffPeriods,            ///< ON-OFF idle waits (buffer full)
  kReservoirMemoHits,     ///< ChunkTable::window_sums served from the memo
  kReservoirMemoBuilds,   ///< ChunkTable::window_sums table builds
  kCursorQueries,         ///< StreamCursor segment lookups
  kCursorRewinds,         ///< lookups that fell back to binary search
  kPoolLoops,             ///< pool loop participations (per thread)
  kPoolChunksClaimed,     ///< grain-sized index chunks claimed
  kSeqBatches,            ///< sequential-engine rounds (batches) run
  kSeqSessions,           ///< sessions the sequential engine simulated
  kSeqSessionsSaved,      ///< budget sessions early stopping skipped
  kCount
};

/// Log-bucketed value distributions.
enum class Hist : std::size_t {
  kDownloadSeconds = 0,  ///< per-chunk download time
  kStallSeconds,         ///< per-stall duration
  kOffWaitSeconds,       ///< per-OFF-period idle wait
  kExecutorBacklog,      ///< indices still unclaimed when a chunk is claimed
  kCount
};

const char* counter_name(Counter c);
const char* hist_name(Hist h);

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kNumHists =
    static_cast<std::size_t>(Hist::kCount);

/// Power-of-two bucket histogram: bucket i holds values with upper edge
/// ~2^(i - kBucketBias); values outside clamp to the end buckets. Exact
/// edges do not matter (diagnostics, not results); count and sum are exact
/// up to the microsecond-granular fixed-point sum.
struct HistSlot {
  static constexpr int kBuckets = 64;
  static constexpr int kBucketBias = 20;  ///< bucket 20 has edge ~1.0

  std::atomic<std::uint64_t> buckets[kBuckets]{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_micro{0};  ///< sum of values, 1e-6 units

  /// frexp-equivalent binning via the raw IEEE-754 exponent field -- this
  /// runs per observed value on the hot path, so no libm call. Subnormals
  /// clamp to bucket 0 (the end buckets absorb out-of-range values by
  /// design).
  static int bucket_of(double v) {
    if (!(v > 0.0)) return 0;
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const int idx =
        static_cast<int>((bits >> 52) & 0x7ff) - 1022 + kBucketBias;
    if (idx < 0) return 0;
    if (idx >= kBuckets) return kBuckets - 1;
    return idx;
  }
  static double bucket_edge(int i);

  void record(double v) {
    buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
    sum_micro.fetch_add(
        v > 0.0 ? static_cast<std::uint64_t>(v * 1e6 + 0.5) : 0,
        std::memory_order_relaxed);
  }
};

/// Merged (cross-slot) view of the registry, safe to read and serialize
/// after (or during) a run.
struct MetricsSnapshot {
  std::uint64_t counters[kNumCounters] = {};
  struct HistValues {
    std::uint64_t buckets[HistSlot::kBuckets] = {};
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Nearest-rank quantile over the log2 buckets (q in [0, 1]): the
    /// upper edge of the bucket holding the order statistic at 0-based
    /// rank round(q * (count-1)). Within a factor of 2 of the true value
    /// by construction (diagnostics-grade; the fleet telemetry sketches
    /// are the tight-error path). Returns 0 for an empty histogram.
    double percentile(double q) const;
  } hists[kNumHists];

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistValues& hist(Hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }

  /// Serializes to a JSON object (counters + non-empty histogram buckets).
  /// `extra_json` (e.g. the trace collector's tallies) is spliced in as
  /// additional top-level members when non-empty; it must be a sequence of
  /// `"key":value` members without the surrounding braces.
  std::string to_json(const std::string& extra_json = {}) const;

  /// Human-readable table (one line per non-zero counter / histogram).
  std::string to_text() const;
};

/// The registry: `slots` independent shards. Allocation happens only at
/// construction; recording never allocates or locks.
class MetricsRegistry {
 public:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> counters[kNumCounters]{};
    HistSlot hists[kNumHists];

    void count(Counter c, std::uint64_t n = 1) {
      counters[static_cast<std::size_t>(c)].fetch_add(
          n, std::memory_order_relaxed);
    }
    void observe(Hist h, double v) {
      hists[static_cast<std::size_t>(h)].record(v);
    }
  };

  explicit MetricsRegistry(std::size_t slots);
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  std::size_t num_slots() const { return num_slots_; }

  /// Shard `i`; out-of-range indices wrap (a pool larger than the registry
  /// shares shards -- relaxed atomics keep that safe, merely contended).
  Slot& slot_at(std::size_t i) { return slots_[i % num_slots_]; }

  /// Sums every slot into one snapshot.
  MetricsSnapshot snapshot() const;

 private:
  Slot* slots_;
  std::size_t num_slots_;
};

/// Thread-private accumulation buffer: plain integers, no atomics. Lives
/// on a SlotBinding's stack frame and is merged into a shared registry
/// Slot exactly once, when the binding ends.
struct LocalSlot {
  std::uint64_t counters[kNumCounters] = {};
  struct LocalHist {
    std::uint64_t buckets[HistSlot::kBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum_micro = 0;
  } hists[kNumHists];

  void count(Counter c, std::uint64_t n = 1) {
    counters[static_cast<std::size_t>(c)] += n;
  }
  void observe(Hist h, double v) {
    LocalHist& lh = hists[static_cast<std::size_t>(h)];
    ++lh.buckets[HistSlot::bucket_of(v)];
    ++lh.count;
    lh.sum_micro += v > 0.0 ? static_cast<std::uint64_t>(v * 1e6 + 0.5) : 0;
  }

  /// Adds every non-zero entry into `slot` with relaxed atomics.
  void flush_into(MetricsRegistry::Slot& slot) const {
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      if (counters[c] != 0) {
        slot.counters[c].fetch_add(counters[c], std::memory_order_relaxed);
      }
    }
    for (std::size_t h = 0; h < kNumHists; ++h) {
      const LocalHist& lh = hists[h];
      if (lh.count == 0) continue;
      HistSlot& hs = slot.hists[h];
      for (int b = 0; b < HistSlot::kBuckets; ++b) {
        if (lh.buckets[b] != 0) {
          hs.buckets[b].fetch_add(lh.buckets[b], std::memory_order_relaxed);
        }
      }
      hs.count.fetch_add(lh.count, std::memory_order_relaxed);
      hs.sum_micro.fetch_add(lh.sum_micro, std::memory_order_relaxed);
    }
  }
};

namespace detail {
/// The buffer instrumentation sites write through; nullptr = disabled.
/// Function-local rather than a namespace-scope `extern thread_local`:
/// GCC's -fsanitize=null reports every store through the extern variable
/// as a store to null, a false positive that would fail every test under
/// UBSan.
inline LocalSlot*& tl_metrics_slot() {
  constinit thread_local LocalSlot* slot = nullptr;
  return slot;
}
}  // namespace detail

/// Counts into the bound buffer; a branch and nothing else when unbound.
inline void count(Counter c, std::uint64_t n = 1) {
  if (LocalSlot* s = detail::tl_metrics_slot()) s->count(c, n);
}

/// Records into the bound buffer's histogram; no-op when unbound.
inline void observe(Hist h, double v) {
  if (LocalSlot* s = detail::tl_metrics_slot()) s->observe(h, v);
}

/// True while a binding is active on this thread (tracing-aware callers
/// can skip building event payloads early).
inline bool metrics_enabled() {
  return detail::tl_metrics_slot() != nullptr;
}

/// RAII binding of this thread to one registry slot, buffered through a
/// private LocalSlot that is flushed on destruction. Nestable: restores
/// the previous binding afterwards. A null registry explicitly disables
/// recording for the binding's lifetime (used to mute replays).
class SlotBinding {
 public:
  SlotBinding(MetricsRegistry* registry, std::size_t slot)
      : previous_(detail::tl_metrics_slot()),
        target_(registry != nullptr ? &registry->slot_at(slot) : nullptr) {
    detail::tl_metrics_slot() = target_ != nullptr ? &local_ : nullptr;
  }
  ~SlotBinding() {
    if (target_ != nullptr) local_.flush_into(*target_);
    detail::tl_metrics_slot() = previous_;
  }

  SlotBinding(const SlotBinding&) = delete;
  SlotBinding& operator=(const SlotBinding&) = delete;

 private:
  LocalSlot local_;
  LocalSlot* previous_;
  MetricsRegistry::Slot* target_;
};

}  // namespace bba::obs
