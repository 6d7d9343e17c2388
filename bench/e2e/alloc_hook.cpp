// Replaces the global operator new/delete to count allocations per thread.
// The counters are thread_local and trivially initialized, so they work
// during static initialization and thread start-up, and no thread ever
// contends with another for them. Over-aligned allocations keep the
// library's own aligned operator new (they are not counted).
#include "alloc_hook.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_count = 0;
thread_local std::uint64_t t_bytes = 0;
thread_local bool t_paused = false;

void* counted_alloc(std::size_t size) {
  if (!t_paused) {
    ++t_count;
    t_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace sanmap::e2e {

AllocTally alloc_tally() { return AllocTally{t_count, t_bytes}; }

AllocPause::AllocPause() : was_paused_(t_paused) { t_paused = true; }

AllocPause::~AllocPause() { t_paused = was_paused_; }

}  // namespace sanmap::e2e

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}
