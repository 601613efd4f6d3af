// Counting global allocator for allocation-count tests.
//
// While `g_count_allocs` is set, every operator new in the binary bumps
// `g_allocs`. The replacement operators are ordinary (non-inline)
// definitions, so include this header from exactly one translation
// unit of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_allocs{0};

/// Heap allocations `fn()` makes.
template <typename Fn>
long CountAllocs(Fn&& fn) {
  g_allocs = 0;
  g_count_allocs = true;
  fn();
  g_count_allocs = false;
  return g_allocs.load();
}
}  // namespace

// GCC pairs its builtin operator new with free() when it inlines these
// replacements and warns; the pairing is the replacement's intent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
