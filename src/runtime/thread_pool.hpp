// Fixed-size thread pool with a deterministic-by-construction ordered loop.
//
// The pool hands out chunks of an index range dynamically, in ascending
// order, so *scheduling* is nondeterministic -- but callers write only to
// per-index slots, and the calling thread drains finished indices strictly
// in index order, so *results* never depend on which thread ran which
// chunk. See docs/runtime.md for the determinism contract.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bba::runtime {

/// A fixed set of worker threads executing ordered loops. The calling
/// thread always participates, so a pool of size N uses N-1 workers and
/// size 1 means "run everything inline" (no threads, no locks on the hot
/// path) -- the reference sequential schedule.
class ThreadPool {
 public:
  using SlotBody = std::function<void(std::size_t, std::size_t)>;
  /// Receives [first, last), the next finished indices, on the caller.
  using Drain = std::function<void(std::size_t, std::size_t)>;

  /// threads == 0 selects hardware_concurrency(). threads == 1 creates no
  /// worker threads at all.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute loop bodies (workers + caller, >= 1).
  std::size_t size() const { return workers_.size() + 1; }

  /// The pool's one loop, behind SessionExecutor. Runs body(i, slot) once
  /// for every i in [begin, end) on any thread, and calls
  /// *drain(first, last) on the calling thread for consecutive ranges that
  /// cover [begin, end) in ascending order, each as soon as body has
  /// returned for every index up to `last`. The caller alternates its own
  /// chunks with these drains and returns only when every index has been
  /// executed.
  ///
  /// `slot` is the executing thread's stable index in [0, size()): the
  /// caller is slot 0, worker k is slot k+1. No two body invocations run
  /// concurrently with the same slot, so slot-indexed scratch storage
  /// needs no locking. Which indices land on which slot is
  /// schedule-dependent; the determinism contract (docs/runtime.md) is
  /// unchanged.
  ///
  /// Indices are claimed in ascending order, in chunks of
  /// min(grain, window) indices (both >= 1; the last chunk may be
  /// shorter). An index i is claimed only once every index below
  /// i - window + 1 has been drained, so at most `window` (>= 1) indices
  /// are produced but not yet drained at any time, and storage indexed by
  /// i % window is never shared by two of them. A worker at that edge
  /// sleeps on a condition variable until the caller drains.
  ///
  /// If a body throws, no further chunk is claimed; every index below the
  /// lowest failing index is still produced and drained, none at or above
  /// it is, and that index's exception is rethrown on the calling thread.
  /// If *drain throws, workers finish their current chunk and the drain's
  /// exception propagates. Either way the pool stays usable. `drain` may
  /// be null.
  void parallel_for_ordered(std::size_t begin, std::size_t end,
                            std::size_t grain, std::size_t window,
                            const SlotBody& body, const Drain* drain);

  /// The chunk size grain == 0 selects for a loop of `count` indices.
  std::size_t default_grain(std::size_t count) const;

  /// The in-flight bound for `grain`-sized claims: a few claims per thread.
  std::size_t default_window(std::size_t grain) const;

  /// std::thread::hardware_concurrency() with a floor of 1.
  static std::size_t hardware_threads();

 private:
  struct Loop;

  void worker_main(std::size_t slot);
  void run_loop(const std::shared_ptr<Loop>& loop);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for a new loop
  std::shared_ptr<Loop> loop_;       ///< current loop; guarded by mu_
  std::uint64_t generation_ = 0;     ///< bumped per loop; guarded by mu_
  bool stop_ = false;                ///< guarded by mu_
};

}  // namespace bba::runtime
