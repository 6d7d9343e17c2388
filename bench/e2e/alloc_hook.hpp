// Per-thread allocation tallies kept by the bench-only global operator new
// replacement in alloc_hook.cpp (linked into bench_e2e_traced alone).
#pragma once

#include <cstdint>

namespace sanmap::e2e {

struct AllocTally {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Allocations made so far on the calling thread, excluding paused ones.
AllocTally alloc_tally();

/// Stops counting the calling thread's allocations while alive, so the
/// tracer's own bookkeeping is never charged to a span.
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
  AllocPause(AllocPause&&) = delete;
  AllocPause& operator=(AllocPause&&) = delete;

 private:
  bool was_paused_;
};

}  // namespace sanmap::e2e
