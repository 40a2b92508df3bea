#include "alloc_budget.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// The replacement pair allocates with malloc and frees with free, which
// GCC's inliner cannot see is matched.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<bool> g_budget_armed{false};
std::atomic<std::size_t> g_budget_left{0};
}  // namespace

namespace {
// Charges n bytes to an armed budget and allocates them; null when the
// budget or malloc is exhausted.
void* budgeted_malloc(std::size_t n) noexcept {
  if (g_budget_armed.load(std::memory_order_relaxed)) {
    std::size_t left = g_budget_left.load(std::memory_order_relaxed);
    do {
      if (n > left) return nullptr;
    } while (!g_budget_left.compare_exchange_weak(left, left - n,
                                                  std::memory_order_relaxed));
  }
  return std::malloc(n != 0 ? n : 1);
}
}  // namespace

// Every operator new that the replaced operator delete may free is
// replaced too, so a sanitizer sees malloc paired with free throughout
// (std::get_temporary_buffer, behind std::stable_sort, uses the nothrow
// form).
void* operator new(std::size_t n) {
  if (void* p = budgeted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return budgeted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace bba::testing_support {

AllocationBudget::AllocationBudget(std::size_t bytes) : bytes_(bytes) {
  g_budget_left.store(bytes, std::memory_order_relaxed);
  g_budget_armed.store(true, std::memory_order_relaxed);
}

AllocationBudget::~AllocationBudget() {
  g_budget_armed.store(false, std::memory_order_relaxed);
}

std::size_t AllocationBudget::used() const {
  return bytes_ - g_budget_left.load(std::memory_order_relaxed);
}

}  // namespace bba::testing_support
