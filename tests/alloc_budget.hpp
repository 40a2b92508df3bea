// An armable allocation budget for tests. While an AllocationBudget is
// alive, the replaced global operator new (alloc_budget.cpp) throws
// std::bad_alloc once the bytes requested since arming -- on any thread,
// freed or not -- pass the budget. A test links alloc_budget.cpp into its
// binary and arms a budget around the code under test: a parser that tries
// to allocate a corrupt grid, or a run whose memory should not grow with
// its input, fails the test instead of exhausting the machine.
#pragma once

#include <cstddef>

namespace bba::testing_support {

/// Arms the allocation budget for its lifetime. Not nestable.
class AllocationBudget {
 public:
  explicit AllocationBudget(std::size_t bytes);
  ~AllocationBudget();

  /// Bytes charged to the budget since arming.
  std::size_t used() const;

  AllocationBudget(const AllocationBudget&) = delete;
  AllocationBudget& operator=(const AllocationBudget&) = delete;

 private:
  std::size_t bytes_;
};

}  // namespace bba::testing_support
