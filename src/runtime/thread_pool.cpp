#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"

namespace bba::runtime {

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

void ThreadPool::run_chunks(Loop& loop, std::size_t slot) {
  // Pool-level metrics bypass the thread-local binding (workers only bind
  // inside the body, around each unit of work) and write straight to this
  // slot's shard. Null when observability is off: no stores, no spans.
  obs::Observability* o = obs::global();
  obs::MetricsRegistry::Slot* ms =
      (o != nullptr && o->metrics != nullptr) ? &o->metrics->slot_at(slot)
                                              : nullptr;
  obs::ScopedTimer span(o != nullptr ? o->profiler.get() : nullptr, slot,
                        "pool.participate");
  if (ms != nullptr) ms->count(obs::Counter::kPoolLoops);
  for (;;) {
    const std::size_t start =
        loop.next.fetch_add(loop.grain, std::memory_order_relaxed);
    if (start >= loop.end) return;
    if (ms != nullptr) {
      ms->count(obs::Counter::kPoolChunksClaimed);
      ms->observe(obs::Hist::kExecutorBacklog,
                  static_cast<double>(loop.end - start));
    }
    if (loop.failed.load(std::memory_order_relaxed)) continue;  // drain
    const std::size_t stop = std::min(loop.end, start + loop.grain);
    try {
      if (loop.slot_body != nullptr) {
        for (std::size_t i = start; i < stop; ++i) (*loop.slot_body)(i, slot);
      } else {
        for (std::size_t i = start; i < stop; ++i) (*loop.body)(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(loop.error_mu);
      if (!loop.error) loop.error = std::current_exception();
      loop.failed.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_main(std::size_t slot) {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Loop> loop;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      loop = loop_;
    }
    if (!loop) continue;  // loop already retired between notify and wake
    loop->in_flight.fetch_add(1, std::memory_order_relaxed);
    run_chunks(*loop, slot);
    if (loop->in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_loop(const std::shared_ptr<Loop>& loop) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_ = loop;
    ++generation_;
  }
  work_cv_.notify_all();

  run_chunks(*loop, 0);  // the caller participates as slot 0

  {
    // All indices are claimed once run_chunks returns; wait for workers
    // still executing their final chunk. Workers that wake later claim
    // nothing (the cursor is past `end`) and never touch the body.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return loop->in_flight.load(std::memory_order_acquire) == 0;
    });
    loop_ = nullptr;
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

std::size_t ThreadPool::default_grain(std::size_t count) const {
  // ~64 claims per thread. With only a few claims each, one slow claim at
  // the end of a loop leaves the other threads idle (a 1500-key claim on
  // the paper's six-group workload is ~0.4 s of work); at 64 the tail is a
  // few milliseconds, and one relaxed fetch_add per ~100 sessions costs
  // nothing measurable.
  return std::max<std::size_t>(1, count / (size() * 64));
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain,
                              const std::function<void(std::size_t)>& body) {
  BBA_ASSERT(body != nullptr, "parallel_for requires a body");
  if (end <= begin) return;
  const std::size_t count = end - begin;
  if (grain == 0) grain = default_grain(count);
  // Run inline when there is nobody to share with or nothing to share.
  if (workers_.empty() || count <= grain) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto loop = std::make_shared<Loop>();
  loop->next.store(begin, std::memory_order_relaxed);
  loop->end = end;
  loop->grain = grain;
  loop->body = &body;
  run_loop(loop);
}

void ThreadPool::parallel_for_slots(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  BBA_ASSERT(body != nullptr, "parallel_for_slots requires a body");
  if (end <= begin) return;
  const std::size_t count = end - begin;
  if (grain == 0) grain = default_grain(count);
  // Inline: the caller is the only executor, so everything is slot 0.
  if (workers_.empty() || count <= grain) {
    for (std::size_t i = begin; i < end; ++i) body(i, 0);
    return;
  }

  auto loop = std::make_shared<Loop>();
  loop->next.store(begin, std::memory_order_relaxed);
  loop->end = end;
  loop->grain = grain;
  loop->slot_body = &body;
  run_loop(loop);
}

}  // namespace bba::runtime
