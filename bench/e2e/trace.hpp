// Span and counter recording for bench_e2e_traced.
//
// A span times one call into a layer's public function (name
// "layer.function") or one workload step (a name with no '.'). Spans nest
// per thread: a span's self time is its duration minus the time its direct
// child spans cover, and the same holds for the allocations the bench-only
// operator new hook counts on the span's thread. Every layer span records
// the step it ran under, which the Chrome trace carries as an argument.
//
// In bench_e2e (SANMAP_E2E_TRACED undefined) every entry point compiles to
// nothing, so the untraced binary measures the program alone.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace sanmap::e2e {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (1 for a single measurement).
  std::size_t n = 1;
};

namespace trace {

#ifdef SANMAP_E2E_TRACED

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  /// Renames the span before it closes (a tick is classified only once it
  /// has returned).
  void rename(const char* name);

 private:
  std::size_t index_;
};

/// Adds `value` to a named counter unless the thread is inside a setup or
/// check step.
void count(const char* name, double value);

/// Labels the calling thread in the Chrome trace.
void name_thread(const char* name);

/// The per-layer ledger: for every span in `spans`, calls per workload
/// iteration and self time, allocations and allocated MiB per call; for
/// every (name, unit) in `counters`, the counter's total per iteration.
std::vector<Metric> layer_metrics(
    const std::vector<std::string>& spans,
    const std::vector<std::pair<std::string, std::string>>& counters,
    double iterations);

/// Writes every span as a Chrome trace-event "X" event (Perfetto and
/// chrome://tracing open it). Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path);

#else

class Span {
 public:
  explicit Span(const char* /*name*/) {}
};

inline void count(const char* /*name*/, double /*value*/) {}
inline void name_thread(const char* /*name*/) {}

#endif

}  // namespace trace
}  // namespace sanmap::e2e
