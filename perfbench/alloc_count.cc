// Counting replacements of the global operator new/delete. Every heap
// allocation the simulator makes through new (containers, coroutine frames,
// std::function, shared_ptr control blocks) passes through here; runs are
// single-threaded, so plain counters suffice.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "perfbench/probe.h"

namespace {

int64_t g_allocs = 0;
int64_t g_alloc_bytes = 0;

void* Allocate(std::size_t n) noexcept {
  ++g_allocs;
  g_alloc_bytes += static_cast<int64_t>(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(std::size_t n, std::align_val_t al) noexcept {
  ++g_allocs;
  g_alloc_bytes += static_cast<int64_t>(n);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  return std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a);
}

}  // namespace

namespace perfbench {
int64_t AllocCount() { return g_allocs; }
int64_t AllocBytes() { return g_alloc_bytes; }
}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return Allocate(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = AllocateAligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return AllocateAligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
