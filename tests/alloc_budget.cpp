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
std::atomic<std::size_t> g_budget_count{0};
}  // namespace

namespace {
// Charges n bytes to an armed budget and counts the allocation; false when
// the budget is exhausted.
bool charge(std::size_t n) noexcept {
  if (!g_budget_armed.load(std::memory_order_relaxed)) return true;
  g_budget_count.fetch_add(1, std::memory_order_relaxed);
  std::size_t left = g_budget_left.load(std::memory_order_relaxed);
  do {
    if (n > left) return false;
  } while (!g_budget_left.compare_exchange_weak(left, left - n,
                                                std::memory_order_relaxed));
  return true;
}

// Allocates n charged bytes; null when the budget or malloc is exhausted.
void* budgeted_malloc(std::size_t n) noexcept {
  return charge(n) ? std::malloc(n != 0 ? n : 1) : nullptr;
}

// The same for an over-aligned type: aligned_alloc wants a multiple of
// the alignment.
void* budgeted_aligned(std::size_t n, std::align_val_t align) noexcept {
  const std::size_t a = static_cast<std::size_t>(align);
  return charge(n) ? std::aligned_alloc(a, (n + a - 1) & ~(a - 1)) : nullptr;
}
}  // namespace

// Every operator new that the replaced operator delete may free is
// replaced too, so a sanitizer sees malloc paired with free throughout
// (std::get_temporary_buffer, behind std::stable_sort, uses the nothrow
// form). The array forms call these.
void* operator new(std::size_t n) {
  if (void* p = budgeted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return budgeted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t align) {
  if (void* p = budgeted_aligned(n, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bba::testing_support {

AllocationBudget::AllocationBudget(std::size_t bytes) : bytes_(bytes) {
  g_budget_left.store(bytes, std::memory_order_relaxed);
  g_budget_count.store(0, std::memory_order_relaxed);
  g_budget_armed.store(true, std::memory_order_relaxed);
}

AllocationBudget::~AllocationBudget() {
  g_budget_armed.store(false, std::memory_order_relaxed);
}

std::size_t AllocationBudget::used() const {
  return bytes_ - g_budget_left.load(std::memory_order_relaxed);
}

std::size_t AllocationBudget::count() const {
  return g_budget_count.load(std::memory_order_relaxed);
}

}  // namespace bba::testing_support
