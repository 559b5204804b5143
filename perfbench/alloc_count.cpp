// Global operator new interposer: counts every allocation the process makes,
// so a pass can report allocations per event over its run phase.
//
// The sharded engine allocates from its worker threads too, so every thread
// counts into a slot of its own, on a cache line of its own: a count is a
// plain load and store that no other thread writes, never a shared atomic
// read-modify-write. Threads beyond the slot table share one overflow
// counter. allocationsSoFar() sums the slots.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

// GCC inlines the malloc-backed replacements into callers and then flags the
// (correct) malloc/free pairing as a new/delete mismatch.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

constexpr std::size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> news{0};
};

Slot g_slots[kSlots];
std::atomic<std::uint64_t> g_overflow{0};
std::atomic<std::size_t> g_nextSlot{0};

// This thread's slot, claimed at its first allocation. Trivially
// destructible, so claiming it allocates nothing.
thread_local Slot* t_slot = nullptr;
thread_local bool t_claimed = false;

void count() {
  if (!t_claimed) {
    t_claimed = true;
    const std::size_t i = g_nextSlot.fetch_add(1, std::memory_order_relaxed);
    t_slot = i < kSlots ? &g_slots[i] : nullptr;
  }
  if (t_slot == nullptr) {
    g_overflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Only this thread writes its slot; readers may see a slightly stale sum.
  t_slot->news.store(t_slot->news.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
}

void* countedAlloc(std::size_t n) {
  count();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* countedAlignedAlloc(std::size_t n, std::align_val_t al) {
  count();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}

}  // namespace

namespace perfbench {
std::uint64_t allocationsSoFar() {
  std::uint64_t n = g_overflow.load(std::memory_order_relaxed);
  for (const Slot& s : g_slots) n += s.news.load(std::memory_order_relaxed);
  return n;
}
}  // namespace perfbench

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return countedAlignedAlloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return countedAlignedAlloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
