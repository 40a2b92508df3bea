// Fixed-size thread pool with a deterministic-by-construction parallel_for.
//
// The pool hands out chunks of an index range dynamically (an atomic
// cursor), so *scheduling* is nondeterministic -- but callers write only to
// per-index slots of pre-sized storage, so *results* never depend on which
// thread ran which chunk. See docs/runtime.md for the determinism contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bba::runtime {

/// A fixed set of worker threads executing parallel_for loops. The calling
/// thread always participates, so a pool of size N uses N-1 workers and
/// size 1 means "run everything inline" (no threads, no locks on the hot
/// path) -- the reference sequential schedule.
class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency(). threads == 1 creates no
  /// worker threads at all.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute loop bodies (workers + caller, >= 1).
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(i) exactly once for every i in [begin, end). Chunks of
  /// `grain` consecutive indices are claimed dynamically; the calling
  /// thread participates and the call returns only when every index has
  /// been executed. grain == 0 picks a default. If any body invocation
  /// throws, the remaining chunks are skipped and the first exception is
  /// rethrown on the calling thread; the pool stays usable.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& body);

  /// Like parallel_for, but body(i, slot) also receives the executing
  /// thread's stable slot index in [0, size()): the caller is slot 0,
  /// worker k is slot k+1. No two body invocations run concurrently with
  /// the same slot, so slot-indexed scratch storage needs no locking.
  /// Which indices land on which slot is schedule-dependent; the
  /// determinism contract (docs/runtime.md) is unchanged.
  void parallel_for_slots(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// The chunk size grain == 0 selects for a loop of `count` indices.
  std::size_t default_grain(std::size_t count) const;

  /// std::thread::hardware_concurrency() with a floor of 1.
  static std::size_t hardware_threads();

 private:
  /// Shared state of one parallel_for invocation. Exactly one of `body`
  /// and `slot_body` is set.
  struct Loop {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t)>* body = nullptr;
    const std::function<void(std::size_t, std::size_t)>* slot_body = nullptr;
    std::atomic<int> in_flight{0};     ///< workers currently inside the loop
    std::atomic<bool> failed{false};   ///< a body threw; drain, don't run
    std::exception_ptr error;
    std::mutex error_mu;
  };

  void worker_main(std::size_t slot);
  static void run_chunks(Loop& loop, std::size_t slot);
  void run_loop(const std::shared_ptr<Loop>& loop);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for a new loop
  std::condition_variable done_cv_;  ///< caller waits here for stragglers
  std::shared_ptr<Loop> loop_;       ///< current loop; guarded by mu_
  std::uint64_t generation_ = 0;     ///< bumped per loop; guarded by mu_
  bool stop_ = false;                ///< guarded by mu_
};

}  // namespace bba::runtime
