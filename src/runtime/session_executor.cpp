#include "runtime/session_executor.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"

namespace bba::runtime {

std::size_t SessionExecutor::window(std::size_t count,
                                    std::size_t grain) const {
  if (grain == 0) grain = pool_.default_grain(count);
  return std::min(count, pool_.default_window(grain));
}

void SessionExecutor::execute(std::size_t count,
                              const std::function<void(std::size_t)>& produce,
                              const std::function<void(std::size_t)>& fold,
                              std::size_t grain) {
  BBA_ASSERT(produce != nullptr, "execute requires produce");
  execute_slotted(
      count, [&produce](std::size_t i, std::size_t) { produce(i); }, fold,
      grain);
}

void SessionExecutor::execute_slotted(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& produce,
    const std::function<void(std::size_t)>& fold, std::size_t grain) {
  BBA_ASSERT(produce != nullptr && fold != nullptr,
             "execute_slotted requires produce and fold");
  if (count == 0) return;
  if (grain == 0) grain = pool_.default_grain(count);
  obs::Observability* o = obs::global();
  obs::Profiler* prof = o != nullptr ? o->profiler.get() : nullptr;
  // The map span covers the whole streaming loop; each drain of ready
  // cells is one fold span inside it, on the caller's timeline.
  obs::ScopedTimer map_span(prof, 0, "executor.map");
  const ThreadPool::Drain drain = [&](std::size_t first, std::size_t last) {
    obs::ScopedTimer span(prof, 0, "executor.fold");
    for (std::size_t i = first; i < last; ++i) {
      fold(i);
      ++tasks_folded_;
    }
  };
  pool_.parallel_for_ordered(0, count, grain, window(count, grain), produce,
                             &drain);
}

}  // namespace bba::runtime
