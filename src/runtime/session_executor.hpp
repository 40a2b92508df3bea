// Deterministic parallel execution of independent session cells.
//
// The A/B harness (and any future sweep) is a map-fold: simulate N
// independent cells and aggregate them. SessionExecutor parallelises the
// map on a ThreadPool and keeps the fold sequential in canonical index
// order, which makes the combined result bit-identical for every thread
// count -- floating-point accumulation happens in exactly one order, the
// index order, no matter how cells were scheduled. The fold streams: it
// runs on the calling thread, interleaved with the map, as soon as a
// prefix of cells is done, so only a bounded window of cells is ever in
// flight.
#pragma once

#include <cstddef>
#include <functional>

#include "runtime/thread_pool.hpp"

namespace bba::runtime {

/// Runs `produce(i)` for every i in [0, count) on the pool (any thread,
/// any order), and `fold(i)` for i = 0, 1, ..., count-1 sequentially on
/// the calling thread, each as soon as produce has finished i and every
/// index before it. The caller alternates claims of its own with these
/// folds; workers keep producing meanwhile.
///
/// Window contract: with W = window(count, grain), produce(i) starts only
/// after fold(i - W) has returned. Per-cell results may therefore live in
/// a ring of W slots indexed by i % W, which produce(i) writes and fold(i)
/// reads; no two in-flight cells share a slot. W follows from threads()
/// and the grain alone, so the ring does not grow with the population.
///
/// Determinism contract: produce(i) must write only to its own slot (and
/// read only immutable shared state); fold reads those slots. Under that
/// contract the result is a pure function of the inputs, independent of
/// thread count and schedule.
class SessionExecutor {
 public:
  /// threads == 0 selects hardware concurrency; threads == 1 is the
  /// reference sequential schedule (no worker threads at all).
  explicit SessionExecutor(std::size_t threads = 0) : pool_(threads) {}

  /// Threads executing produce() calls (>= 1).
  std::size_t threads() const { return pool_.size(); }

  ThreadPool& pool() { return pool_; }

  /// The ring size W of the window contract above for an execute*() of
  /// `count` cells at `grain` (0 = default): a few claims per thread,
  /// never more than `count`.
  std::size_t window(std::size_t count, std::size_t grain = 0) const;

  /// The streaming map + ordered fold described above. `grain` is the
  /// claim size (0 = default). If produce(i) throws, no further cell is
  /// claimed; every cell before i is still produced and folded, none at
  /// or after i is, and the exception is rethrown here. If fold throws,
  /// its exception propagates once the workers finish their current
  /// claims. The pool stays usable either way.
  void execute(std::size_t count,
               const std::function<void(std::size_t)>& produce,
               const std::function<void(std::size_t)>& fold,
               std::size_t grain = 0);

  /// execute() with slot-aware produce: produce(i, slot) receives the
  /// executing thread's slot index in [0, threads()), never used by two
  /// concurrent invocations. Pre-size per-thread scratch to threads() and
  /// index it by slot — no locking needed. The scratch must not feed into
  /// the produced values in any slot-dependent way, or determinism across
  /// thread counts is lost.
  void execute_slotted(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& produce,
      const std::function<void(std::size_t)>& fold, std::size_t grain = 0);

  /// Total fold() calls completed across every execute*() on this
  /// executor. Because the fold is strictly sequential in index order,
  /// this is an exact cursor into the canonical task sequence -- the
  /// checkpoint layer reads it to know how far a chunked run has folded.
  std::size_t tasks_folded() const { return tasks_folded_; }

  void reset_tasks_folded() { tasks_folded_ = 0; }

 private:
  ThreadPool pool_;
  std::size_t tasks_folded_ = 0;
};

}  // namespace bba::runtime
