#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"

namespace bba::runtime {

namespace {

// Claims larger than this add nothing: one claim per 128 indices is already
// far below measurable overhead, and a cap keeps the window -- and so the
// memory a streaming caller holds per in-flight index -- independent of the
// population once loops are large.
constexpr std::size_t kMaxGrain = 128;

// The window admits this many claims per thread past the drain cursor: one
// in progress, and slack for the caller to finish its own claim and drain
// before a worker reaches the edge.
constexpr std::size_t kClaimsInFlightPerThread = 4;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Runs body over [start, stop) on `slot`. Returns the index it stopped at:
// stop, or the index whose body threw, with *error set.
std::size_t run_chunk(const ThreadPool::SlotBody& body, std::size_t start,
                      std::size_t stop, std::size_t slot,
                      std::exception_ptr* error) {
  std::size_t i = start;
  try {
    for (; i < stop; ++i) body(i, slot);
  } catch (...) {
    *error = std::current_exception();
  }
  return i;
}

// Pool-level instruments of one thread's participation. Pool metrics bypass
// the thread-local binding (workers only bind inside the body, around each
// unit of work) and write straight to the slot's shard. Null when
// observability is off: no stores, no spans.
struct Instruments {
  explicit Instruments(std::size_t slot) {
    obs::Observability* o = obs::global();
    if (o == nullptr) return;
    if (o->metrics != nullptr) shard = &o->metrics->slot_at(slot);
    profiler = o->profiler.get();
    if (shard != nullptr) shard->count(obs::Counter::kPoolLoops);
  }

  void claimed(std::size_t start, std::size_t end) const {
    if (shard == nullptr) return;
    shard->count(obs::Counter::kPoolChunksClaimed);
    shard->observe(obs::Hist::kExecutorBacklog,
                   static_cast<double>(end - start));
  }

  obs::MetricsRegistry::Slot* shard = nullptr;
  obs::Profiler* profiler = nullptr;
};

}  // namespace

// Shared state of one parallel_for_ordered invocation. Everything below
// `mu` is guarded by it; a chunk's body runs with it released.
struct ThreadPool::Loop {
  Loop(std::size_t begin, std::size_t end_in, std::size_t grain_in,
       std::size_t window_in, const SlotBody& body_in, const Drain* drain_in)
      : end(end_in),
        grain(grain_in),
        window(window_in),
        body(body_in),
        drain(drain_in),
        next(begin),
        cursor(begin),
        done(window_in, 0) {}

  // Claims the next chunk into [*start, *stop) if the window admits all
  // of it. Chunks never split at the window edge, so their boundaries,
  // and the claim count, do not depend on the schedule.
  bool try_claim(std::size_t* start, std::size_t* stop) {
    if (exhausted()) return false;
    const std::size_t chunk_end = std::min(end, next + grain);
    if (chunk_end > cursor + window) return false;
    *start = next;
    *stop = next = chunk_end;
    return true;
  }

  // Nothing is left to claim: every index is claimed, a body threw, or
  // the caller stopped.
  bool exhausted() const { return closed || next >= end; }

  // Records that body returned for [start, ran); `error` is set when
  // body(ran) threw. Wakes the caller when the index at its drain cursor
  // became ready or the loop failed, and every worker on a failure.
  void finish(std::size_t start, std::size_t ran, std::exception_ptr error) {
    for (std::size_t i = start; i < ran; ++i) done[i % window] = 1;
    bool wake = start <= cursor && cursor < ran;
    if (error) {
      if (ran < failed_at) {
        failed_at = ran;
        this->error = std::move(error);
      }
      closed = true;
      space_cv.notify_all();
      wake = true;
    }
    if (wake) ready_cv.notify_one();
  }

  const std::size_t end;
  const std::size_t grain;
  const std::size_t window;
  const SlotBody& body;
  const Drain* drain;

  std::mutex mu;
  std::condition_variable space_cv;  ///< workers: the window moved or closed
  std::condition_variable ready_cv;  ///< caller: an index got ready, a worker left
  std::size_t next;                  ///< first unclaimed index
  std::size_t cursor;                ///< first index not yet drained
  /// done[i % window]: body(i) returned, for i in [cursor, next).
  std::vector<unsigned char> done;
  std::size_t failed_at = kNone;  ///< lowest index whose body threw
  std::exception_ptr error;       ///< that body's exception
  bool closed = false;            ///< claim nothing more
  int workers_in = 0;             ///< workers inside the loop
};

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    // Worker i owns slot i+1; the caller is slot 0.
    workers_.emplace_back([this, slot = i + 1] { worker_main(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_main(std::size_t slot) {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Loop> held;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      held = loop_;
    }
    if (!held) continue;  // loop already retired between notify and wake
    Loop& loop = *held;
    const Instruments in(slot);
    // The busy span closes while the worker sleeps at the window edge.
    std::optional<obs::ScopedTimer> busy;
    busy.emplace(in.profiler, slot, "pool.participate");
    std::unique_lock<std::mutex> lock(loop.mu);
    ++loop.workers_in;
    for (;;) {
      std::size_t start = 0, stop = 0;
      if (!loop.try_claim(&start, &stop)) {
        if (loop.exhausted()) break;
        busy.reset();
        loop.space_cv.wait(lock);
        busy.emplace(in.profiler, slot, "pool.participate");
        continue;
      }
      lock.unlock();
      in.claimed(start, loop.end);
      std::exception_ptr error;
      const std::size_t ran = run_chunk(loop.body, start, stop, slot, &error);
      lock.lock();
      loop.finish(start, ran, std::move(error));
    }
    busy.reset();
    // A worker that wakes after the caller retired the loop finds it
    // exhausted and never touches the body; the last one out tells the
    // caller, which waits for all of them before returning.
    if (--loop.workers_in == 0) loop.ready_cv.notify_one();
  }
}

void ThreadPool::run_loop(const std::shared_ptr<Loop>& held) {
  Loop& loop = *held;
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_ = held;
    ++generation_;
  }
  work_cv_.notify_all();

  // The caller is slot 0: it drains whatever prefix is ready, else claims
  // a chunk of its own, else sleeps until a worker finishes the index at
  // the drain cursor. Draining first keeps the window open for the
  // workers.
  std::exception_ptr drain_error;
  try {
    const Instruments in(0);
    std::unique_lock<std::mutex> lock(loop.mu);
    for (;;) {
      const std::size_t limit = std::min(loop.next, loop.failed_at);
      std::size_t ready = loop.cursor;
      while (ready < limit && loop.done[ready % loop.window] != 0) ++ready;
      if (ready > loop.cursor) {
        const std::size_t first = loop.cursor;
        lock.unlock();
        if (loop.drain != nullptr) (*loop.drain)(first, ready);
        lock.lock();
        for (std::size_t i = first; i < ready; ++i) {
          loop.done[i % loop.window] = 0;
        }
        loop.cursor = ready;
        loop.space_cv.notify_all();
        continue;
      }
      if (loop.cursor >= std::min(loop.end, loop.failed_at)) break;
      std::size_t start = 0, stop = 0;
      if (loop.try_claim(&start, &stop)) {
        lock.unlock();
        in.claimed(start, loop.end);
        std::exception_ptr error;
        std::size_t ran = start;
        {
          obs::ScopedTimer busy(in.profiler, 0, "pool.participate");
          ran = run_chunk(loop.body, start, stop, 0, &error);
        }
        lock.lock();
        loop.finish(start, ran, std::move(error));
        continue;
      }
      loop.ready_cv.wait(lock);
    }
  } catch (...) {
    drain_error = std::current_exception();
  }

  {
    // Stop further claims and wait for workers still in their last chunk.
    // Workers that wake later find the loop exhausted.
    std::unique_lock<std::mutex> lock(loop.mu);
    loop.closed = true;
    loop.space_cv.notify_all();
    loop.ready_cv.wait(lock, [&] { return loop.workers_in == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_ = nullptr;
  }
  if (drain_error) std::rethrow_exception(drain_error);
  if (loop.error) std::rethrow_exception(loop.error);
}

std::size_t ThreadPool::default_grain(std::size_t count) const {
  // ~64 claims per thread. With only a few claims each, one slow claim at
  // the end of a loop leaves the other threads idle (a 1500-key claim on
  // the paper's six-group workload is ~0.4 s of work); at 64 the tail is a
  // few milliseconds, and one claim per ~100 sessions costs nothing
  // measurable.
  return std::clamp<std::size_t>(count / (size() * 64), 1, kMaxGrain);
}

std::size_t ThreadPool::default_window(std::size_t grain) const {
  return kClaimsInFlightPerThread * size() * std::max<std::size_t>(grain, 1);
}

void ThreadPool::parallel_for_ordered(std::size_t begin, std::size_t end,
                                      std::size_t grain, std::size_t window,
                                      const SlotBody& body,
                                      const Drain* drain) {
  BBA_ASSERT(body != nullptr, "parallel_for_ordered requires a body");
  BBA_ASSERT(grain >= 1 && window >= 1,
             "parallel_for_ordered requires grain and window >= 1");
  if (end <= begin) return;
  const std::size_t count = end - begin;
  // A chunk must fit in the window.
  grain = std::min(grain, window);
  // Run inline when there is nobody to share with or nothing to share:
  // the caller alternates chunks and drains, all on slot 0.
  if (workers_.empty() || count <= grain) {
    for (std::size_t start = begin; start < end; start += grain) {
      const std::size_t stop = std::min(end, start + grain);
      std::exception_ptr error;
      const std::size_t ran = run_chunk(body, start, stop, 0, &error);
      if (drain != nullptr && ran > start) (*drain)(start, ran);
      if (error) std::rethrow_exception(error);
    }
    return;
  }
  run_loop(std::make_shared<Loop>(begin, end, grain, std::min(window, count),
                                  body, drain));
}

}  // namespace bba::runtime
