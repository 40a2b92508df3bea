// An armable allocation budget. While an AllocationBudget is alive, the
// replaced global operator new (alloc_budget.cpp) counts every allocation
// and throws std::bad_alloc once the bytes requested since arming -- on
// any thread, freed or not -- pass the budget. A binary links
// alloc_budget.cpp and arms a budget around the code under test: a parser
// that tries to allocate a corrupt grid, or a run whose memory should not
// grow with its input, fails the test instead of exhausting the machine.
// An unbounded budget only counts: micro_session_hot_path arms one around
// its measured loops to report allocations per session.
#pragma once

#include <cstddef>
#include <limits>

namespace bba::testing_support {

/// Arms the allocation budget for its lifetime. Not nestable.
class AllocationBudget {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  explicit AllocationBudget(std::size_t bytes);
  ~AllocationBudget();

  /// Bytes charged to the budget since arming.
  std::size_t used() const;

  /// Allocations (operator new calls, refused ones included) since arming.
  std::size_t count() const;

  AllocationBudget(const AllocationBudget&) = delete;
  AllocationBudget& operator=(const AllocationBudget&) = delete;

 private:
  std::size_t bytes_;
};

}  // namespace bba::testing_support
