// Wall-clock phase/scope profiling exported as Chrome trace-event JSON.
//
// The profiler answers "where does run_ab_test spend its time, per
// thread?": ThreadPool workers record their loop participations,
// the SessionExecutor records its map and fold phases, and the harness
// records its setup. Events land in per-slot buffers (one owner thread at
// a time, no locking) and are merged into a single
// chrome://tracing-loadable JSON file at exit.
//
// Timestamps come from steady_clock, so the trace itself is
// nondeterministic -- but nothing here feeds back into simulation values,
// so A/B results stay bit-identical with profiling on or off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bba::obs {

/// Per-slot span recorder. Event names must be string literals (or
/// otherwise outlive the profiler): only the pointer is stored, so the hot
/// path never allocates for a span whose buffer has warmed up.
class Profiler {
 public:
  /// `max_events_per_slot` bounds memory; further spans are counted as
  /// dropped instead of recorded.
  explicit Profiler(std::size_t slots,
                    std::size_t max_events_per_slot = 1u << 18);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  std::size_t num_slots() const { return slots_.size(); }

  /// Microseconds since profiler construction.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records one complete ("ph":"X") span on `slot`'s timeline.
  void record(std::size_t slot, const char* name, double ts_us,
              double dur_us);

  /// Spans discarded because a slot buffer hit its cap.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Every recorded span, merged across slots and sorted by start time,
  /// as {"traceEvents":[...]} -- load via chrome://tracing or
  /// https://ui.perfetto.dev (ObsScope writes it to --profile-out).
  std::string chrome_trace_json() const;

 private:
  struct Event {
    const char* name;
    double ts_us;
    double dur_us;
    std::uint32_t tid;
  };
  struct alignas(64) SlotBuf {
    std::vector<Event> events;
  };

  std::vector<SlotBuf> slots_;
  std::size_t max_events_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span: records [construction, destruction) on `slot`. A null
/// profiler makes every operation a no-op, so call sites need no branches.
class ScopedTimer {
 public:
  ScopedTimer(Profiler* profiler, std::size_t slot, const char* name)
      : profiler_(profiler), slot_(slot), name_(name),
        start_us_(profiler != nullptr ? profiler->now_us() : 0.0) {}

  ~ScopedTimer() {
    if (profiler_ != nullptr) {
      const double end = profiler_->now_us();
      profiler_->record(slot_, name_, start_us_, end - start_us_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler* profiler_;
  std::size_t slot_;
  const char* name_;
  double start_us_;
};

}  // namespace bba::obs
