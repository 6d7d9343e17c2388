#include "trace.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>

#include "alloc_hook.hpp"

namespace sanmap::e2e::trace {

namespace {

struct Record {
  const char* name = "";
  /// The step the span ran under (its own name for a step span).
  const char* step = "none";
  /// Index of the enclosing span in the same thread's log, or -1.
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t child_ns = 0;
  /// Inclusive allocation counts while open (start tallies until closed).
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t child_allocs = 0;
  std::uint64_t child_bytes = 0;
};

struct ThreadLog {
  std::size_t tid = 0;
  std::string name;
  std::vector<Record> records;
  std::vector<std::size_t> open;
  const char* step = "none";
};

bool is_step(const char* name) { return std::strchr(name, '.') == nullptr; }

/// Steps whose spans feed no per-layer metric: input generation and the
/// benchmark's own output checks.
bool is_bench_step(const char* step) {
  return std::strcmp(step, "setup") == 0 || std::strcmp(step, "check") == 0;
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// Thread logs outlive their threads: the ledger is read after the workers
// have joined.
std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;
std::map<std::string, double> g_counters;

ThreadLog& this_thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    const AllocPause pause;
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->tid = g_logs.size();
    log->name = log->tid == 1 ? "main" : "thread-" + std::to_string(log->tid);
  }
  return *log;
}

void escape_into(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\';
    }
    out << c;
  }
}

}  // namespace

Span::Span(const char* name) {
  ThreadLog& log = this_thread_log();
  {
    const AllocPause pause;
    Record r;
    r.name = name;
    r.step = is_step(name) ? name : log.step;
    r.parent = log.open.empty()
                   ? -1
                   : static_cast<std::int64_t>(log.open.back());
    index_ = log.records.size();
    log.records.push_back(r);
    log.open.push_back(index_);
    log.step = r.step;
  }
  // Read the clocks last, so the bookkeeping above stays outside the span.
  Record& r = log.records[index_];
  const AllocTally tally = alloc_tally();
  r.allocs = tally.count;
  r.bytes = tally.bytes;
  r.start_ns = now_ns();
}

Span::~Span() {
  const std::int64_t end = now_ns();
  const AllocTally tally = alloc_tally();
  ThreadLog& log = this_thread_log();
  Record& r = log.records[index_];
  r.dur_ns = end - r.start_ns;
  r.allocs = tally.count - r.allocs;
  r.bytes = tally.bytes - r.bytes;
  log.open.pop_back();
  if (r.parent >= 0) {
    Record& parent = log.records[static_cast<std::size_t>(r.parent)];
    parent.child_ns += r.dur_ns;
    parent.child_allocs += r.allocs;
    parent.child_bytes += r.bytes;
    log.step = parent.step;
  } else {
    log.step = "none";
  }
}

void Span::rename(const char* name) {
  this_thread_log().records[index_].name = name;
}

void count(const char* name, double value) {
  ThreadLog& log = this_thread_log();
  if (is_bench_step(log.step)) {
    return;
  }
  const AllocPause pause;
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_counters[name] += value;
}

void name_thread(const char* name) {
  ThreadLog& log = this_thread_log();
  const AllocPause pause;
  log.name = name;
}

std::vector<Metric> layer_metrics(
    const std::vector<std::string>& spans,
    const std::vector<std::pair<std::string, std::string>>& counters,
    double iterations) {
  struct Totals {
    double calls = 0;
    double self_ns = 0;
    double allocs = 0;
    double bytes = 0;
  };
  std::map<std::string, Totals> totals;
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& log : g_logs) {
    for (const Record& r : log->records) {
      if (is_step(r.name) || is_bench_step(r.step)) {
        continue;
      }
      Totals& t = totals[r.name];
      t.calls += 1;
      t.self_ns += static_cast<double>(r.dur_ns - r.child_ns);
      t.allocs += static_cast<double>(r.allocs - r.child_allocs);
      t.bytes += static_cast<double>(r.bytes - r.child_bytes);
    }
  }
  const auto per_call = [](double total, double calls) {
    return calls > 0 ? total / calls : 0.0;
  };
  std::vector<Metric> out;
  for (const std::string& name : spans) {
    const Totals t = totals.count(name) ? totals.at(name) : Totals{};
    out.push_back({name + ".calls", t.calls / iterations, "count", 1});
    out.push_back({name + ".self_ms", per_call(t.self_ns, t.calls) / 1e6, "ms",
                   static_cast<std::size_t>(t.calls)});
    out.push_back({name + ".allocs", per_call(t.allocs, t.calls), "count",
                   static_cast<std::size_t>(t.calls)});
    out.push_back({name + ".alloc_mb",
                   per_call(t.bytes, t.calls) / (1024.0 * 1024.0), "MiB",
                   static_cast<std::size_t>(t.calls)});
  }
  for (const auto& [name, unit] : counters) {
    const auto it = g_counters.find(name);
    out.push_back({name,
                   (it == g_counters.end() ? 0.0 : it->second) / iterations,
                   unit, 1});
  }
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(g_mutex);
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& log : g_logs) {
    out << (first ? "" : ",") << "\n{\"name\":\"thread_name\",\"ph\":\"M\","
        << "\"pid\":1,\"tid\":" << log->tid << ",\"args\":{\"name\":\"";
    escape_into(out, log->name);
    out << "\"}}";
    first = false;
    for (const Record& r : log->records) {
      const std::string name = r.name;
      const auto dot = name.find('.');
      out << ",\n{\"name\":\"" << name << "\",\"cat\":\""
          << (dot == std::string::npos ? "step" : name.substr(0, dot))
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << log->tid
          << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(r.dur_ns) / 1e3
          << ",\"args\":{\"step\":\"" << r.step << "\",\"self_us\":"
          << static_cast<double>(r.dur_ns - r.child_ns) / 1e3
          << ",\"allocs\":" << r.allocs << ",\"alloc_bytes\":" << r.bytes
          << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace sanmap::e2e::trace
