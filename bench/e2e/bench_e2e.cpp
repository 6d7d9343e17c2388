// bench_e2e — the end-to-end benchmark of the sanmap pipeline
// (gen → map → route → certify → publish → serve → query).
//
// Four workloads, each in its own child process so its peak RSS comes from
// wait4 and no heap state carries over from one workload to the next:
//
//   static-fattree-480     gen, then `sanmap map`, `routes` and `lint` on a
//                          480-switch fat tree: the operator's offline
//                          bring-up, dominated by the routing and analysis
//                          layers.
//   map-fattree-960        `sanmap map` on a 960-switch fat tree: mapping
//                          alone (depth bound + Berkeley mapper).
//   serve-churn-dragonfly  the map service's write side under churn, wired
//                          in-process the way `sanmap serve` wires it, then
//                          `sanmap query` against the snapshot it wrote.
//   query-readers-480      route queries on two reader threads while one
//                          writer republishes: the read side under writes.
//
// The CLI steps run the built `sanmap` binary, because the CLI is what an
// operator runs (and it owns choices such as the mapper's depth bound).
// README.md has the metric catalogue, the layer map and the commands.
//
// The same source builds bench_e2e_traced (SANMAP_E2E_TRACED): it runs the
// CLI in-process through the CLI's own entry point, times each call into a
// layer (layer_spans.cpp), counts allocations per call (alloc_hook.cpp), and
// adds the per-layer ledger to its results and a Chrome trace per workload.
//
//   bench_e2e [--workload NAME|all] [--seed N] [--seconds S] [--smoke]
//             [--workdir DIR] [--out FILE] [--declared BENCHMARK.json]
//             [--trace-out DIR]
//   bench_e2e --compare A.json B.json
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/refresh_loop.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/churn.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/serialize.hpp"
#include "trace.hpp"

#ifdef SANMAP_E2E_TRACED
// tools/sanmap_cli.cpp's main, compiled under this name into the traced
// binary.
int sanmap_cli_main(int argc, char** argv);
#endif

namespace {

using namespace sanmap;
using e2e::Metric;
using Clock = std::chrono::steady_clock;

#ifdef SANMAP_E2E_TRACED
constexpr bool kTraced = true;
constexpr const char* kBenchName = "e2e_traced";
#else
constexpr bool kTraced = false;
constexpr const char* kBenchName = "e2e";
#endif

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return std::nan("");
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  return (upper + *std::max_element(values.begin(),
                                    values.begin() + static_cast<long>(mid))) /
         2;
}

// Shortest text that reads back as the same double: every digit measured.
std::string number_text(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

// ---- metric catalogue -------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
  /// Share of the baseline a value may get worse by before --compare fails.
  double bound;
};

// Timings are medians over the run's samples (n in the results), except
// step_ms, the fastest repetition of the workload's step. Bound 0 marks
// metrics that are deterministic for a given seed. setup_s and step_ms are
// the timings BENCHMARK.json declares, with its bounds.
constexpr MetricSpec kMetrics[] = {
    {"setup_s", "s", false, 0.25},
    {"step_ms", "ms", false, 0.25},
    {"map_s", "s", false, 0.10},
    {"routes_s", "s", false, 0.10},
    {"lint_s", "s", false, 0.10},
    {"map_virtual_ms", "ms", false, 0.0},
    {"map_probes", "count", false, 0.0},
    {"serve_s", "s", false, 0.10},
    {"bootstrap_virtual_ms", "ms", false, 0.0},
    {"repair_s", "s", false, 0.10},
    {"repair_virtual_ms", "ms", false, 0.0},
    {"query_cli_s", "s", false, 0.10},
    {"query_p50_us", "us", false, 0.10},
    {"query_p99_us", "us", false, 0.10},
    {"query_qps", "1/s", true, 0.10},
    {"routable_pair_frac", "ratio", true, 0.01},
    {"peak_rss_mb", "MiB", false, 0.05},
    {"failed_frac", "ratio", false, 0.0},
};

const MetricSpec* find_spec(const std::string& name) {
  for (const MetricSpec& spec : kMetrics) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

#ifdef SANMAP_E2E_TRACED
// The per-layer ledger: spans at the public entry points of the layers on
// the workloads' path, and counters read from the layers' own reports.
const std::vector<std::string> kLayerSpans = {
    "topology.parse",          "topology.search_depth",
    "topology.verify",         "topology.to_text",
    "mapper.berkeley",         "routing.compute_routes",
    "routing.analyze_routes",  "routing.distribute_tables",
    "routing.check_routes",    "analysis.analyze",
    "service.bootstrap",       "service.tick_observe",
    "service.tick_repair",     "service.build_snapshot",
    "service.publish",         "service.encode",
    "service.decode",          "service.route",
};
const std::vector<std::pair<std::string, std::string>> kLayerCounters = {
    {"probe.probes", "count"},
    {"probe.virtual_ms", "ms"},
    {"routing.routes", "count"},
    {"routing.dependencies", "count"},
    {"service.gate.fast", "count"},
    {"service.gate.escalated", "count"},
    {"service.repair.incremental", "count"},
    {"service.repair.full", "count"},
    {"service.repair.probes", "count"},
    {"service.health.routes_checked", "count"},
    {"service.snapshot.bytes", "bytes"},
    {"service.catalog.rejected_unsafe", "count"},
};
#endif

// ---- one workload's tallies (filled in the child) ---------------------------

struct Options {
  std::uint64_t seed = 1;
  /// Measure for this long; 0 runs each workload's fixed iteration count.
  double seconds = 0;
  bool smoke = false;
  std::string workdir;
  std::string trace_out;
};

/// A deadlock-unsafe table became current: the one failure that ends the
/// run instead of being counted.
class UnsafePublish : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Run {
 public:
  /// One operation whose output is checked against the ground truth. A
  /// wrong output fails the operation and makes the run incorrect; the run
  /// goes on.
  void check(bool ok, const std::string& what) {
    check_all(1, ok ? 0 : 1, what);
  }
  void check_all(std::uint64_t attempted, std::uint64_t wrong,
                 const std::string& what) {
    attempted_ += attempted;
    failed_ += wrong;
    if (wrong > 0) {
      correct_ = false;
      std::cerr << "WRONG (" << wrong << " of " << attempted << "): " << what
                << "\n";
    }
  }
  /// Operations the program refused without answering wrongly, such as
  /// "no route" for a pair of live hosts: failed, but not incorrect.
  void tally(std::uint64_t attempted, std::uint64_t refused,
             const std::string& what) {
    attempted_ += attempted;
    failed_ += refused;
    if (refused > 0) {
      std::cerr << "FAILED (" << refused << " of " << attempted
                << "): " << what << "\n";
    }
  }
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// The fastest sample of `name` (NaN when there is none).
  [[nodiscard]] double best(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end()
               ? std::nan("")
               : *std::min_element(it->second.begin(), it->second.end());
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }

  /// Medians of every sampled metric, in catalogue order.
  [[nodiscard]] std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const MetricSpec& spec : kMetrics) {
      const auto it = samples_.find(spec.name);
      if (it != samples_.end()) {
        out.push_back({spec.name, median(it->second), spec.unit,
                       it->second.size()});
      }
    }
    return out;
  }

  /// Repetitions of the workload's unit of work; the per-layer ledger is
  /// reported per iteration.
  int iterations = 0;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::map<std::string, std::vector<double>> samples_;
};

/// Repeats `step` until the time budget is spent, or a fixed number of times
/// when there is no budget. Within a budget, another repetition starts only
/// while the last one would still fit, so a run ends near its budget
/// however slow the host is; there is always at least one.
int repeat(const Options& o, int fixed, const std::function<void()>& step) {
  if (o.seconds <= 0) {
    const int n = o.smoke ? 1 : fixed;
    for (int i = 0; i < n; ++i) {
      step();
    }
    return n;
  }
  const Clock::time_point start = Clock::now();
  int n = 0;
  double last = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    step();
    last = seconds_since(t0);
    ++n;
  } while (seconds_since(start) + last <= o.seconds);
  return n;
}

/// Set-ups per iteration of the workloads that set up in milliseconds.
constexpr int kSetUps = 10;

/// Set-up runs `times` times, so setup_s is a median; the last repetition's
/// state is the one the workload keeps. Workloads whose set-up takes
/// milliseconds set up again before every iteration: the host's speed
/// drifts over seconds, and set-up samples spread over the whole run keep
/// one slow stretch from setting their median.
template <typename F>
void set_up(Run& run, int times, F&& once) {
  for (int i = 0; i < times; ++i) {
    const e2e::trace::Span step("setup");
    const Clock::time_point t0 = Clock::now();
    once();
    run.sample("setup_s", seconds_since(t0));
  }
}

/// A set-up failure ends the run. Set-up is not an operation the benchmark
/// measures, so it never counts into `attempted`, which stays a function of
/// the seed and the number of iterations.
void require(bool ok, const std::string& what) {
  if (!ok) {
    throw std::runtime_error("set-up failed: " + what);
  }
}

// ---- the sanmap CLI ---------------------------------------------------------

struct CliResult {
  int exit_code = -1;
  /// stdout and stderr, interleaved.
  std::string output;
  double wall_s = 0;
};

#ifdef SANMAP_E2E_TRACED

// Runs the CLI's own main in-process with its output captured, so the
// layer spans see its calls.
CliResult sanmap_cli(const std::vector<std::string>& args) {
  std::vector<std::string> storage = {"sanmap"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  struct Capture {
    std::ostringstream text;
    std::streambuf* out = std::cout.rdbuf(text.rdbuf());
    std::streambuf* err = std::cerr.rdbuf(text.rdbuf());
    ~Capture() {
      std::cout.rdbuf(out);
      std::cerr.rdbuf(err);
    }
  };
  CliResult result;
  Capture capture;
  const Clock::time_point start = Clock::now();
  result.exit_code =
      sanmap_cli_main(static_cast<int>(storage.size()), argv.data());
  result.wall_s = seconds_since(start);
  result.output = capture.text.str();
  return result;
}

#else

// Runs the built sanmap binary as a child process.
CliResult sanmap_cli(const std::vector<std::string>& args) {
  std::vector<char*> argv = {const_cast<char*>(SANMAP_CLI)};
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  CliResult result;
  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(SANMAP_CLI, argv.data());
    _exit(127);
  }
  close(fds[1]);
  char buffer[4096];
  ssize_t got = 0;
  while ((got = read(fds[0], buffer, sizeof buffer)) > 0) {
    result.output.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  result.wall_s = seconds_since(start);
  result.exit_code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return result;
}

#endif

/// The text after the colon on the output line "<label>   : ...", or "".
std::string field(const std::string& output, const std::string& label) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(label, 0) != 0) {
      continue;
    }
    const std::size_t colon = line.find(':', label.size());
    if (colon != std::string::npos &&
        line.find_first_not_of(' ', label.size()) == colon) {
      const std::size_t begin = line.find_first_not_of(' ', colon + 1);
      return begin == std::string::npos ? "" : line.substr(begin);
    }
  }
  return "";
}

/// The leading number of `text`, or NaN.
double leading_number(const std::string& text) {
  double value = std::nan("");
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

/// A SimTime::str() rendering ("21.576 s", "248.208 ms") in milliseconds.
double virtual_ms(const std::string& text) {
  const double value = leading_number(text);
  const std::size_t space = text.find(' ');
  const std::string unit =
      space == std::string::npos ? "" : text.substr(space + 1, 2);
  if (unit == "s " || unit == "s") {
    return value * 1e3;
  }
  if (unit == "ms") {
    return value;
  }
  if (unit == "us") {
    return value / 1e3;
  }
  if (unit == "ns") {
    return value / 1e6;
  }
  return std::nan("");
}

topo::Topology read_topology_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return topo::read_topology(in);
}

// ---- shared steps -----------------------------------------------------------

/// A generated fabric and the shape of its mappable core, which every map of
/// it must reproduce.
struct Fabric {
  std::string path;
  topo::Topology topo;
  std::size_t hosts = 0;
  std::size_t switches = 0;
  std::size_t wires = 0;
};

Fabric generate(const Options& o, const std::string& name,
                std::vector<std::string> gen_args) {
  Fabric f;
  f.path = o.workdir + "/" + name + ".topo";
  gen_args.insert(gen_args.begin(), "gen");
  gen_args.insert(gen_args.end(), {"--out", f.path});
  const CliResult gen = sanmap_cli(gen_args);
  require(gen.exit_code == 0, "sanmap gen " + name);
  f.topo = read_topology_file(f.path);
  const topo::Topology core = topo::core(f.topo);
  f.hosts = core.num_hosts();
  f.switches = core.num_switches();
  f.wires = core.num_wires();
  return f;
}

/// `sanmap map --in FABRIC --out MAP`, sampled as map_s.
void map_step(Run& run, const Fabric& f, const std::string& map) {
  CliResult r;
  {
    const e2e::trace::Span step("map");
    r = sanmap_cli({"map", "--in", f.path, "--out", map});
  }
  const e2e::trace::Span step("check");
  bool ok = r.exit_code == 0 &&
            field(r.output, "verified") == "isomorphic to the ground truth";
  double mapped_hosts = 0;
  if (ok) {
    const topo::Topology mapped = read_topology_file(map);
    mapped_hosts = static_cast<double>(mapped.num_hosts());
    ok = mapped.num_hosts() == f.hosts && mapped.num_switches() == f.switches &&
         mapped.num_wires() == f.wires;
  }
  run.check(ok, "sanmap map reproduces the generated fabric");
  const auto hosts = static_cast<double>(f.hosts);
  run.sample("routable_pair_frac",
             mapped_hosts * (mapped_hosts - 1) / (hosts * (hosts - 1)));
  run.sample("map_s", r.wall_s);
  run.sample("map_probes", leading_number(field(r.output, "probes")));
  run.sample("map_virtual_ms", virtual_ms(field(r.output, "time")));
}

// step_ms is the fastest repetition of the workload's step, or the sum of
// the fastest repetitions of its parts. On a shared host, other tenants'
// load only ever adds time, and it comes in bursts: the fastest repetition
// held steadier from run to run than the median while the host was busy.

// ---- static-fattree-480 -----------------------------------------------------

void static_fattree(const Options& o, Run& run) {
  Fabric f;
  const std::string map = o.workdir + "/static.map";
  run.iterations = repeat(o, 5, [&] {
    set_up(run, kSetUps, [&] {
      f = generate(o, "static",
                   {"--topology", "megafattree", "--leaves",
                    o.smoke ? "32" : "256"});
    });
    const double hosts = static_cast<double>(f.hosts);
    map_step(run, f, map);

    CliResult routes;
    {
      const e2e::trace::Span step("routes");
      routes = sanmap_cli({"routes", "--in", map, "--sample", "0", "--seed",
                           std::to_string(o.seed)});
    }
    {
      const e2e::trace::Span step("check");
      run.check(routes.exit_code == 0 &&
                    leading_number(field(routes.output, "routes")) ==
                        hosts * (hosts - 1) &&
                    field(routes.output, "deadlock-free").rfind("yes", 0) == 0,
                "sanmap routes: every host pair, deadlock-free");
    }
    run.sample("routes_s", routes.wall_s);

    CliResult lint;
    {
      const e2e::trace::Span step("lint");
      lint = sanmap_cli({"lint", "--in", map});
    }
    run.check(lint.exit_code == 0 && field(lint.output, "verdict") == "clean",
              "sanmap lint is clean");
    run.sample("lint_s", lint.wall_s);
  });
  run.sample("step_ms", (run.best("map_s") + run.best("routes_s") +
                         run.best("lint_s")) *
                            1e3);
}

// ---- map-fattree-960 --------------------------------------------------------

void map_fattree(const Options& o, Run& run) {
  Fabric f;
  const std::string map = o.workdir + "/map.map";
  run.iterations = repeat(o, 5, [&] {
    set_up(run, kSetUps, [&] {
      f = generate(o, "map",
                   {"--topology", "megafattree", "--leaves",
                    o.smoke ? "64" : "512"});
    });
    map_step(run, f, map);
  });
  run.sample("step_ms", run.best("map_s") * 1e3);
}

// ---- serve-churn-dragonfly --------------------------------------------------

constexpr const char* kChurn =
    "rolling(start=5s,every=40s,down=15s,count=4);"
    "hostchurn(start=25s,every=60s,down=20s,count=2);"
    "outage(at=100s,switches=2,down=30s)";

// The dragonfly and the churn are drawn from seed 1 in every run; --seed
// feeds the route seed and the query streams. Drawn per seed, over seeds
// 1-10 the workload's peak RSS spread 6% (IQR over median; 259-300 MiB)
// and its session time 18%, beyond the bounds it must hold from seed to
// seed. Seed 1 shows the re-discovery defect README.md records.
constexpr std::uint64_t kServeInputSeed = 1;

void require_safe(const service::MapCatalog& catalog) {
  const service::SnapshotPtr current = catalog.current();
  if (current && !(current->deadlock_free && current->compliant)) {
    throw UnsafePublish("epoch " + std::to_string(current->epoch) +
                        " was published with an unsafe route table");
  }
}

/// One `sanmap serve` session: bootstrap, churn compiled after bootstrap
/// with the master immune, `ticks` ticks, then the snapshot written out and
/// queried through the CLI. Returns the wall time of the bootstrap and of
/// each tick, in that order.
std::vector<double> serve_session(const Options& o, Run& run, const Fabric& f,
                                  int ticks) {
  const topo::Topology& t = f.topo;
  const topo::NodeId master = t.hosts().front();
  simnet::Network net(t);
  simnet::FaultSchedule churn;
  service::MapCatalog catalog;
  service::RefreshConfig config;
  config.master_name = t.name(master);
  config.route_seed = o.seed;
  if (o.smoke) {
    // The smoke fabric's health checks take little virtual time; a longer
    // interval still carries its ten ticks past the churn horizon.
    config.check_interval = common::SimTime::seconds(15);
  }
  common::SimTime end_at;
  std::vector<double> walls;
  {
    const e2e::trace::Span step("serve");
    const Clock::time_point start = Clock::now();
    service::RefreshLoop loop(net, catalog, config);
    const service::TickReport boot = loop.bootstrap();
    walls.push_back(seconds_since(start));
    require_safe(catalog);
    run.check(boot.swapped(), "serve bootstrap publishes");
    churn = simnet::ChurnGenerator(
                simnet::parse_churn_spec(kChurn).shifted(loop.now()),
                kServeInputSeed)
                .compile(t, {master});
    net.attach_faults(&churn);
    common::SimTime previous = loop.now();
    for (int i = 0; i < ticks; ++i) {
      const Clock::time_point tick_start = Clock::now();
      const service::TickReport report = loop.tick();
      const double wall = seconds_since(tick_start);
      walls.push_back(wall);
      require_safe(catalog);
      run.check(!report.remapped || report.swapped(),
                "serve tick republishes after a remap");
      if (report.swapped()) {
        run.sample("repair_s", wall);
        run.sample("repair_virtual_ms", (report.at - previous).to_ms());
      }
      previous = report.at;
    }
    run.sample("serve_s", seconds_since(start));
    run.sample("bootstrap_virtual_ms", boot.at.to_ms());
    end_at = loop.now();

    const service::MapCatalog::GateStats gate = catalog.gate_stats();
    e2e::trace::count("service.gate.fast",
                      static_cast<double>(gate.incremental_fast));
    e2e::trace::count("service.gate.escalated",
                      static_cast<double>(gate.incremental_escalated));
    e2e::trace::count("service.catalog.rejected_unsafe",
                      static_cast<double>(catalog.stats().rejected_unsafe));
  }

  const service::SnapshotPtr served = catalog.current();
  const std::string snapshot_path = o.workdir + "/serve.snap";
  {
    const e2e::trace::Span step("snapshot");
    const std::string bytes = service::encode_snapshot(*served);
    std::ofstream out(snapshot_path, std::ios::binary);
    out << bytes;
    run.check(static_cast<bool>(out), "snapshot written");
  }

  const service::MapSnapshot decoded = [&] {
    const e2e::trace::Span step("check");
    service::MapSnapshot read = service::read_snapshot_file(snapshot_path);
    run.check(read.epoch == served->epoch && read.deadlock_free,
              "snapshot decodes and re-verifies deadlock freedom");
    return read;
  }();

  // Hosts live in the ground truth once the churn has settled; every pair
  // of them should be routable.
  std::vector<topo::NodeId> live;
  for (const topo::NodeId h : t.hosts()) {
    if (churn.node_up_at(h, end_at)) {
      live.push_back(h);
    }
  }

  common::Rng rng(o.seed);
  for (int i = 0; i < 5; ++i) {
    const std::string src = t.name(rng.pick(live));
    std::string dst = src;
    while (dst == src) {
      dst = t.name(rng.pick(live));
    }
    CliResult r;
    {
      const e2e::trace::Span step("query");
      r = sanmap_cli(
          {"query", "--snapshot", snapshot_path, "--src", src, "--dst", dst});
    }
    const e2e::trace::Span step("check");
    const std::string what = "sanmap query " + src + " -> " + dst;
    const service::RouteAnswer expected =
        service::RouteQueryEngine::route_on(decoded, src, dst);
    if (r.exit_code == 1 && !expected.found &&
        r.output.find("no route") != std::string::npos) {
      run.tally(1, 1, what + ": no route");
    } else {
      run.check(r.exit_code == 0 && expected.found &&
                    field(r.output, "route")
                            .rfind(src + " -> " + dst + ", " +
                                       std::to_string(expected.hops) + " hops",
                                   0) == 0,
                what);
    }
    run.sample("query_cli_s", r.wall_s);
  }

  const e2e::trace::Span step("check");
  std::uint64_t pairs = 0;
  std::uint64_t routable = 0;
  for (const topo::NodeId src : live) {
    for (const topo::NodeId dst : live) {
      if (src == dst) {
        continue;
      }
      ++pairs;
      if (service::RouteQueryEngine::route_on(decoded, t.name(src),
                                              t.name(dst))
              .found) {
        ++routable;
      }
    }
  }
  run.tally(pairs, pairs - routable, "live host pairs with no route");
  run.sample("routable_pair_frac",
             static_cast<double>(routable) / static_cast<double>(pairs));
  return walls;
}

/// Two sessions whatever --seconds is: a session takes a good part of a
/// run's budget, and a fixed count keeps `attempted` and `failed` functions
/// of the seed. Both sessions do the same work, so step_ms takes each tick
/// at its faster session: the session per tick, bootstrap, observe and
/// repair ticks alike.
void serve_churn(const Options& o, Run& run) {
  constexpr int kSessions = 2;
  const int ticks = o.smoke ? 10 : 30;
  Fabric f;
  set_up(run, kSetUps, [&] {
    f = generate(o, "serve",
                 {"--topology", "dragonfly", "--groups", o.smoke ? "4" : "16",
                  "--group-switches", o.smoke ? "4" : "8", "--group-hosts",
                  o.smoke ? "4" : "16", "--seed",
                  std::to_string(kServeInputSeed)});
  });
  std::vector<double> best = serve_session(o, run, f, ticks);
  for (int s = 1; s < kSessions; ++s) {
    const std::vector<double> walls = serve_session(o, run, f, ticks);
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], walls[i]);
    }
  }
  double session_s = 0;
  for (const double wall : best) {
    session_s += wall;
  }
  run.sample("step_ms", session_s * 1e3 / ticks);
  run.iterations = kSessions;
}

// ---- query-readers-480 ------------------------------------------------------

/// Per-query latencies at 1 ns resolution up to 64 us (exact above).
/// Percentiles interpolate inside a bucket, so they keep their fraction.
class LatencyHistogram {
 public:
  void add(std::int64_t ns) {
    if (ns >= 0 && ns < kBuckets) {
      ++counts_[static_cast<std::size_t>(ns)];
    } else {
      overflow_.push_back(static_cast<double>(ns));
    }
    ++total_;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
    total_ += other.total_;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// The q-quantile in ns (q in [0, 1]).
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) {
      return std::nan("");
    }
    const double rank = q * static_cast<double>(total_ - 1);
    double below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const auto count = static_cast<double>(counts_[i]);
      if (below + count > rank) {
        return static_cast<double>(i) + (rank - below + 0.5) / count;
      }
      below += count;
    }
    std::vector<double> rest = overflow_;
    std::sort(rest.begin(), rest.end());
    const auto index = static_cast<std::size_t>(rank - below);
    return rest[std::min(index, rest.size() - 1)];
  }

 private:
  static constexpr std::int64_t kBuckets = 1 << 16;
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(kBuckets));
  std::vector<double> overflow_;
  std::uint64_t total_ = 0;
};

struct QueryPair {
  std::string src;
  std::string dst;
  /// Hop count of the pair's route. Only the parallel-cable choice depends
  /// on the route seed the writer varies, so every epoch agrees on it.
  int hops = 0;
};

void query_readers(const Options& o, Run& run) {
  Fabric f;
  std::unique_ptr<service::MapCatalog> catalog;
  // Three set-ups: each builds and gates a full snapshot in seconds.
  set_up(run, 3, [&] {
    f = generate(o, "readers",
                 {"--topology", "megafattree", "--leaves",
                  o.smoke ? "32" : "256"});
    catalog = std::make_unique<service::MapCatalog>();
    service::SnapshotOptions options;
    options.route_seed = o.seed;
    options.source = "bench";
    require(catalog
                ->publish(service::build_snapshot(f.topo, options,
                                                  common::SimTime{}))
                .published(),
            "initial snapshot publishes");
  });

  std::vector<QueryPair> pairs;
  {
    const e2e::trace::Span step("check");
    const service::SnapshotPtr first = catalog->current();
    const std::vector<topo::NodeId> hosts = f.topo.hosts();
    common::Rng rng(o.seed);
    pairs.resize(o.smoke ? 4096 : 65536);
    for (QueryPair& p : pairs) {
      const topo::NodeId a = rng.pick(hosts);
      topo::NodeId b = a;
      while (b == a) {
        b = rng.pick(hosts);
      }
      p.src = f.topo.name(a);
      p.dst = f.topo.name(b);
      p.hops = service::RouteQueryEngine::route_on(*first, p.src, p.dst).hops;
    }
  }

  constexpr int kReaders = 2;
  constexpr int kBatch = 1024;
  const std::uint64_t quota = o.smoke ? 50'000 : 2'000'000;
  struct Reader {
    LatencyHistogram latency;
    std::uint64_t queries = 0;
    std::uint64_t found = 0;
    std::uint64_t wrong = 0;
    /// Wall time of each batch of kBatch queries.
    std::vector<double> batch_s;
    std::string error;
  };
  std::vector<Reader> readers(kReaders);
  std::uint64_t publishes = 0;
  std::uint64_t refused = 0;
  std::string writer_error;
  // time_up ends the measured window; the writer then finishes its last
  // publishes and sets stop, which ends the readers.
  std::atomic<bool> time_up{false};
  std::atomic<bool> stop{false};
  const service::RouteQueryEngine engine(*catalog);

  const Clock::time_point start = Clock::now();
  std::thread writer([&] {
    try {
      e2e::trace::name_thread("writer");
      const e2e::trace::Span step("write");
      // Publishing goes on until the window has passed and the full history
      // has evicted twice. The peak RSS still grows at the first eviction
      // and stays put from the second on (measured at 480 switches: 8, 9
      // and 15 publishes peak at 1,322, 1,454 and 1,454 MiB), so every run
      // peaks alike whatever the host's speed.
      std::size_t history = catalog->history_epochs().size();
      int evictions = 0;
      for (std::uint64_t k = 1;; ++k) {
        service::SnapshotOptions options;
        options.route_seed = o.seed + k;
        options.source = "bench-writer";
        service::MapSnapshot next = service::build_snapshot(
            f.topo, options, common::SimTime::ms(static_cast<std::int64_t>(k)));
        ++publishes;
        if (!catalog->publish_if_current(std::move(next), catalog->epoch())
                 .published()) {
          ++refused;
        }
        const std::size_t now = catalog->history_epochs().size();
        evictions += now == history ? 1 : 0;
        history = now;
        if (time_up.load() && evictions >= 2) {
          break;
        }
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
    stop = true;
  });
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Reader& reader = readers[static_cast<std::size_t>(r)];
      try {
        e2e::trace::name_thread(r == 0 ? "reader-1" : "reader-2");
        const e2e::trace::Span step("read");
        std::size_t i = static_cast<std::size_t>(r) * pairs.size() / kReaders;
        while (o.seconds > 0 ? !stop.load(std::memory_order_relaxed)
                             : reader.queries < quota) {
          const e2e::trace::Span batch("service.route");
          const Clock::time_point batch_start = Clock::now();
          for (int j = 0; j < kBatch; ++j) {
            const QueryPair& p = pairs[i];
            i = i + 1 == pairs.size() ? 0 : i + 1;
            const Clock::time_point t0 = Clock::now();
            const service::RouteAnswer answer = engine.route(p.src, p.dst);
            const Clock::time_point t1 = Clock::now();
            reader.latency.add(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count());
            reader.found += answer.found ? 1 : 0;
            if (answer.found && answer.hops != p.hops) {
              ++reader.wrong;
            }
          }
          reader.batch_s.push_back(seconds_since(batch_start));
          reader.queries += kBatch;
        }
      } catch (const std::exception& e) {
        reader.error = e.what();
      }
    });
  }
  const auto join_readers = [&] {
    for (std::thread& thread : threads) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  };
  if (o.seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(o.seconds));
  } else {
    join_readers();
  }
  time_up = true;
  writer.join();
  join_readers();
  const double window = seconds_since(start);
  run.iterations = 1;

  LatencyHistogram latency;
  std::uint64_t found = 0;
  std::vector<double> batch_s;
  for (const Reader& reader : readers) {
    run.check(reader.error.empty(), "reader: " + reader.error);
    run.check_all(reader.found, reader.wrong,
                  "route answers with the pair's hop count");
    run.tally(reader.queries - reader.found, reader.queries - reader.found,
              "route queries with no route");
    latency.merge(reader.latency);
    found += reader.found;
    batch_s.insert(batch_s.end(), reader.batch_s.begin(), reader.batch_s.end());
  }
  run.check(writer_error.empty(), "writer: " + writer_error);
  run.tally(publishes, refused, "writer publishes refused");
  require_safe(*catalog);

  const auto queries = static_cast<double>(latency.total());
  run.sample("query_p50_us", latency.quantile(0.50) / 1e3);
  run.sample("query_p99_us", latency.quantile(0.99) / 1e3);
  run.sample("query_qps", queries / window);
  run.sample("routable_pair_frac", static_cast<double>(found) / queries);
  // Time per query in the fastest tenth of the batches. A batch holds
  // kBatch uniform pairs, so its time moves with the tail as well as the
  // typical query; thousands of batches make the decile a steady "best".
  if (!batch_s.empty()) {
    const auto decile =
        batch_s.begin() + static_cast<long>(batch_s.size() / 10);
    std::nth_element(batch_s.begin(), decile, batch_s.end());
    run.sample("step_ms", *decile * 1e3 / kBatch);
  }
}

// ---- workloads and their child processes ------------------------------------

struct Workload {
  const char* name;
  void (*body)(const Options&, Run&);
};

constexpr Workload kWorkloads[] = {
    {"static-fattree-480", static_fattree},
    {"map-fattree-960", map_fattree},
    {"serve-churn-dragonfly", serve_churn},
    {"query-readers-480", query_readers},
};

struct WorkloadResult {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// No checked output was wrong (refusals count as failed, not wrong).
  bool correct = false;
  std::vector<Metric> metrics;
};

// Child side: runs the workload and writes "correct 0|1", "attempted N",
// "failed N" and one "metric NAME VALUE UNIT N" line per metric to `fd`.
int run_child(const Workload& w, const Options& o, int fd) {
  Run run;
  try {
    w.body(o, run);
  } catch (const UnsafePublish& e) {
    std::cerr << w.name << ": ABORTED — " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << w.name << ": aborted — " << e.what() << "\n";
    return 2;
  }
  std::vector<Metric> metrics = run.metrics();
#ifdef SANMAP_E2E_TRACED
  const auto step =
      std::find_if(metrics.begin(), metrics.end(),
                   [](const Metric& m) { return m.name == "step_ms"; });
  if (step != metrics.end()) {
    Metric traced = *step;
    traced.name = "trace.step_ms";
    metrics.push_back(traced);
  }
  const std::vector<Metric> layers = e2e::trace::layer_metrics(
      kLayerSpans, kLayerCounters, std::max(run.iterations, 1));
  metrics.insert(metrics.end(), layers.begin(), layers.end());
  const std::string trace_path =
      o.trace_out + "/trace_" + std::string(w.name) + ".json";
  if (!e2e::trace::write_chrome_trace(trace_path)) {
    std::cerr << "cannot write " << trace_path << "\n";
    return 2;
  }
  std::cerr << "wrote " << trace_path << "\n";
#endif
  std::ostringstream out;
  out << "correct " << (run.correct() ? 1 : 0) << "\nattempted "
      << run.attempted() << "\nfailed " << run.failed() << "\n";
  for (const Metric& m : metrics) {
    out << "metric " << m.name << " " << number_text(m.value) << " " << m.unit
        << " " << m.n << "\n";
  }
  const std::string text = out.str();
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n = write(fd, text.data() + written, text.size() - written);
    if (n <= 0) {
      return 2;
    }
    written += static_cast<std::size_t>(n);
  }
  return 0;
}

// Parent side: forks the workload, collects its results and its peak RSS
// (wait4 counts the child and every process it waited for).
std::optional<WorkloadResult> run_workload(const Workload& w,
                                           const Options& o) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const int code = run_child(w, o, fds[1]);
    std::cout.flush();
    std::cerr.flush();
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buffer[4096];
  ssize_t got = 0;
  while ((got = read(fds[0], buffer, sizeof buffer)) > 0) {
    text.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  wait4(pid, &status, 0, &usage);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << w.name << ": workload process failed (status " << status
              << ")\n";
    return std::nullopt;
  }

  WorkloadResult result;
  result.name = w.name;
  std::istringstream lines(text);
  std::string kind;
  while (lines >> kind) {
    if (kind == "correct") {
      lines >> result.correct;
    } else if (kind == "attempted") {
      lines >> result.attempted;
    } else if (kind == "failed") {
      lines >> result.failed;
    } else {
      Metric m;
      std::string value;
      lines >> m.name >> value >> m.unit >> m.n;
      m.value = leading_number(value);
      result.metrics.push_back(m);
    }
  }
  result.metrics.push_back(
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB", 1});
  result.metrics.push_back(
      {"failed_frac",
       result.attempted == 0 ? std::nan("")
                             : static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted),
       "ratio", 1});
  return result;
}

// ---- results: tables, JSON, the declared-metric line ------------------------

std::string json_number(double value) {
  return std::isfinite(value) ? number_text(value) : "null";
}

void print_table(const WorkloadResult& r) {
  std::cout << "== " << r.name << " (" << r.attempted << " operations, "
            << r.failed << " failed) ==\n";
  common::Table table({"metric", "value", "unit", "n", "bound"});
  for (const Metric& m : r.metrics) {
    const MetricSpec* spec = find_spec(m.name);
    table.add_row({m.name, number_text(m.value), m.unit, std::to_string(m.n),
                   spec ? common::fmt_percent(spec->bound) : "-"});
  }
  std::cout << table << "\n";
}

std::string results_json(const std::vector<WorkloadResult>& results,
                         const Options& o) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << kBenchName << "\",\n  \"seed\": " << o.seed
      << ",\n  \"seconds\": " << number_text(o.seconds)
      << ",\n  \"smoke\": " << (o.smoke ? "true" : "false")
      << ",\n  \"workloads\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    out << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << r.name
        << "\", \"correct\": " << (r.correct ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"metrics\": {";
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      const Metric& m = r.metrics[j];
      out << (j == 0 ? "" : ",") << "\n      \"" << m.name
          << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
          << m.unit << "\", \"n\": " << m.n << "}";
    }
    out << "}}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

// A small JSON reader for BENCHMARK.json and result files. The literals
// true, false and null are read and dropped.
struct Json {
  bool is_number = false;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  [[nodiscard]] const Json* get(const std::string& key) const {
    for (const auto& [name, value] : members) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  Json parse() {
    Json value = parse_value();
    skip_space();
    if (pos_ != s_.size()) {
      fail("trailing characters");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON: " + why + " at byte " +
                             std::to_string(pos_));
  }
  void skip_space() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool take(char c) {
    skip_space();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!take(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        c = s_[pos_++];
        if (c == 'n') {
          c = '\n';
        } else if (c == 't') {
          c = '\t';
        } else if (c == 'u') {
          pos_ = std::min(pos_ + 4, s_.size());
          c = '?';
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }
  Json parse_value() {
    skip_space();
    Json value;
    if (pos_ >= s_.size()) {
      fail("unexpected end");
    }
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      if (!take('}')) {
        do {
          std::string key = parse_string();
          expect(':');
          value.members.emplace_back(std::move(key), parse_value());
        } while (take(','));
        expect('}');
      }
    } else if (c == '[') {
      ++pos_;
      if (!take(']')) {
        do {
          value.items.push_back(parse_value());
        } while (take(','));
        expect(']');
      }
    } else if (c == '"') {
      value.text = parse_string();
    } else if (s_.compare(pos_, 4, "true") == 0 ||
               s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      value.is_number = true;
      const auto result = std::from_chars(s_.data() + pos_,
                                          s_.data() + s_.size(), value.number);
      if (result.ec != std::errc()) {
        fail("bad value");
      }
      pos_ = static_cast<std::size_t>(result.ptr - s_.data());
    }
    return value;
  }

  std::string s_;
  std::size_t pos_ = 0;
};

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return JsonReader(text.str()).parse();
}

/// The (name, unit) pairs BENCHMARK.json declares for this binary: its
/// per_layer list for the traced build, its end_to_end list otherwise.
std::vector<std::pair<std::string, std::string>> declared_metrics(
    const std::string& path) {
  const Json doc = read_json(path);
  const Json* list = doc.get(kTraced ? "per_layer" : "end_to_end");
  if (list == nullptr) {
    throw std::runtime_error(path + " declares no metric list");
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const Json& item : list->items) {
    const Json* name = item.get("name");
    const Json* unit = item.get("unit");
    if (name == nullptr || unit == nullptr) {
      throw std::runtime_error(path + ": a metric lacks its name or unit");
    }
    out.emplace_back(name->text, unit->text);
  }
  return out;
}

/// Every declared metric must come out with its unit and a finite value.
bool check_declared(
    const WorkloadResult& r,
    const std::vector<std::pair<std::string, std::string>>& declared) {
  bool ok = true;
  for (const auto& [name, unit] : declared) {
    const auto it =
        std::find_if(r.metrics.begin(), r.metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it == r.metrics.end() || it->unit != unit ||
        !std::isfinite(it->value)) {
      std::cerr << r.name << ": declared metric " << name << " (" << unit
                << ") is "
                << (it == r.metrics.end() ? "missing"
                    : it->unit != unit    ? "in " + it->unit
                                          : "not a number")
                << "\n";
      ok = false;
    }
  }
  return ok;
}

/// The one-line result: correctness, operation counts and the declared
/// metrics.
std::string declared_line(
    const WorkloadResult& r,
    const std::vector<std::pair<std::string, std::string>>& declared) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < declared.size(); ++i) {
    const auto it = std::find_if(
        r.metrics.begin(), r.metrics.end(),
        [&](const Metric& m) { return m.name == declared[i].first; });
    out << (i == 0 ? "" : ", ") << "\"" << it->name
        << "\": {\"value\": " << number_text(it->value) << ", \"unit\": \""
        << it->unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---- --compare --------------------------------------------------------------

/// Prints every (metric, workload) delta of B against A next to the
/// metric's bound. Returns 1 when any delta is worse than its bound.
int compare(const std::string& a_path, const std::string& b_path) {
  const Json a = read_json(a_path);
  const Json b = read_json(b_path);
  const auto workloads = [](const Json& doc) {
    const Json* list = doc.get("workloads");
    return list ? list->items : std::vector<Json>{};
  };
  const auto value_of = [](const Json& workload, const std::string& metric) {
    const Json* metrics = workload.get("metrics");
    const Json* m = metrics ? metrics->get(metric) : nullptr;
    const Json* v = m ? m->get("value") : nullptr;
    return v && v->is_number ? std::optional(v->number) : std::nullopt;
  };
  common::Table table(
      {"workload", "metric", "A", "B", "worse by", "bound", "verdict"});
  int exceeded = 0;
  for (const Json& wa : workloads(a)) {
    const std::string name = wa.get("name") ? wa.get("name")->text : "";
    for (const Json& wb : workloads(b)) {
      if (!wb.get("name") || wb.get("name")->text != name) {
        continue;
      }
      for (const MetricSpec& spec : kMetrics) {
        const auto va = value_of(wa, spec.name);
        const auto vb = value_of(wb, spec.name);
        if (!va || !vb) {
          continue;
        }
        const double change =
            *va == 0 ? (*vb == 0 ? 0.0 : std::copysign(HUGE_VAL, *vb))
                     : (*vb - *va) / std::fabs(*va);
        const double worse = spec.higher_is_better ? -change : change;
        const bool over = worse > spec.bound;
        exceeded += over ? 1 : 0;
        table.add_row({name, spec.name, number_text(*va), number_text(*vb),
                       common::fmt_percent(worse, 1),
                       common::fmt_percent(spec.bound),
                       over ? "REGRESSED" : "ok"});
      }
    }
  }
  std::cout << table;
  std::cout << exceeded << " (metric, workload) pair(s) worse than their "
            << "bound\n";
  return exceeded > 0 ? 1 : 0;
}

int run_main(int argc, char** argv) {
  common::Flags flags;
  flags.define("workload", "all",
               "static-fattree-480|map-fattree-960|serve-churn-dragonfly|"
               "query-readers-480|all");
  flags.define("seed", "1", "input seed (route seed, query stream)");
  flags.define("seconds", "0",
               "measure each workload for this long (0: fixed iteration "
               "counts)");
  flags.define("smoke", "false", "shrink every workload to a few seconds");
  flags.define("workdir", "bench_e2e_work",
               "directory for generated fabrics, maps and snapshots");
  flags.define("out", std::string("BENCH_") + kBenchName + ".json",
               "results file");
  flags.define("declared", "",
               "BENCHMARK.json: check its metrics appear, and with one "
               "workload print them as the last output line");
  flags.define("trace-out", "",
               "directory for the Chrome trace files (traced build; "
               "default: --workdir)");
  flags.define("compare", "false",
               "compare two results files given as arguments");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  if (flags.get_bool("compare")) {
    if (flags.positional().size() != 2) {
      throw std::runtime_error("--compare takes two results files");
    }
    return compare(flags.positional()[0], flags.positional()[1]);
  }

  Options o;
  o.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  o.seconds = flags.get_double("seconds");
  o.smoke = flags.get_bool("smoke");
  o.workdir = flags.get("workdir");
  o.trace_out = flags.get("trace-out").empty() ? o.workdir
                                               : flags.get("trace-out");
  mkdir(o.workdir.c_str(), 0755);
  mkdir(o.trace_out.c_str(), 0755);

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (flags.get("workload") == "all" || flags.get("workload") == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    throw std::runtime_error("unknown workload " + flags.get("workload"));
  }
  const std::string declared_path = flags.get("declared");
  const auto declared = declared_path.empty()
                            ? std::vector<std::pair<std::string, std::string>>{}
                            : declared_metrics(declared_path);

  std::vector<WorkloadResult> results;
  bool ok = true;
  for (const Workload* w : selected) {
    std::optional<WorkloadResult> result = run_workload(*w, o);
    if (!result) {
      ok = false;
      continue;
    }
    print_table(*result);
    ok = check_declared(*result, declared) && ok;
    results.push_back(std::move(*result));
  }

  const std::string out_path = flags.get("out");
  std::ofstream out(out_path);
  out << results_json(results, o);
  std::cerr << (out ? "wrote " : "cannot write ") << out_path << "\n";
  if (!ok) {
    return 1;
  }
  if (!declared.empty() && results.size() == 1) {
    std::cout << declared_line(results.front(), declared) << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
