#include "service/snapshot_codec.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "routing/engine.hpp"
#include "topology/algorithms.hpp"
#include "topology/serialize.hpp"

namespace sanmap::service {

namespace {

constexpr char kMagic[8] = {'S', 'A', 'N', 'M', 'S', 'N', 'A', 'P'};
// v3 stores the table's raw entries where v2 stored per-route turns, and
// v2 added the engine and optimizer flag; neither older version decodes.
constexpr std::uint32_t kVersion = 3;

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint8_t>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// -- primitive writers (little-endian) --------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// -- primitive readers -------------------------------------------------------

class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_++]))
           << shift;
    }
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_++]))
           << shift;
    }
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str() {
    const std::uint32_t size = u32();
    need(size);
    std::string s(data_ + pos_, size);
    pos_ += size;
    return s;
  }

  std::int8_t i8() {
    need(1);
    return static_cast<std::int8_t>(data_[pos_++]);
  }

  /// The next `size` raw bytes, in place.
  const std::uint8_t* bytes(std::uint64_t size) {
    need(size);
    const auto* at = reinterpret_cast<const std::uint8_t*>(data_ + pos_);
    pos_ += size;
    return at;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::uint64_t bytes) {
    if (size_ - pos_ < bytes) {
      throw std::runtime_error("snapshot: truncated payload");
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_snapshot(const MapSnapshot& snapshot) {
  std::string payload;
  put_u64(payload, snapshot.epoch);
  put_i64(payload, snapshot.created_at.to_ns());
  put_u64(payload, snapshot.options.route_seed);
  put_str(payload, snapshot.options.root_name);
  put_str(payload, snapshot.options.source);
  put_u32(payload, static_cast<std::uint32_t>(snapshot.options.engine));
  payload.push_back(snapshot.options.optimize ? 1 : 0);
  put_str(payload, topo::to_text(snapshot.map));

  const std::span<const std::uint8_t> entries =
      snapshot.routes.routes.entries();
  put_u64(payload, entries.size());
  payload.append(reinterpret_cast<const char*>(entries.data()),
                 entries.size());

  std::string out;
  out.reserve(28 + payload.size());
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kVersion);
  put_u64(out, payload.size());
  put_u64(out, fnv1a(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

MapSnapshot decode_snapshot(const std::string& bytes) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 4 + 8 + 8;
  if (bytes.size() < kHeader ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("snapshot: bad magic");
  }
  Reader header(bytes.data() + sizeof(kMagic), kHeader - sizeof(kMagic));
  const std::uint32_t version = header.u32();
  if (version != kVersion) {
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  }
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (bytes.size() - kHeader != payload_size) {
    throw std::runtime_error("snapshot: size mismatch");
  }
  if (fnv1a(bytes.data() + kHeader, payload_size) != checksum) {
    throw std::runtime_error("snapshot: checksum mismatch");
  }

  Reader payload(bytes.data() + kHeader, payload_size);
  const std::uint64_t epoch = payload.u64();
  const std::int64_t created_ns = payload.i64();
  SnapshotOptions options;
  options.route_seed = payload.u64();
  options.root_name = payload.str();
  options.source = payload.str();
  const std::uint32_t engine = payload.u32();
  if (engine > static_cast<std::uint32_t>(routing::EngineKind::kDfs)) {
    throw std::runtime_error("snapshot: unknown routing engine " +
                             std::to_string(engine));
  }
  options.engine = static_cast<routing::EngineKind>(engine);
  options.optimize = payload.i8() != 0;
  const std::string map_text = payload.str();

  // The map, refused up front where the router's preconditions would fail.
  topo::Topology map = topo::from_text(map_text);
  if (map.num_switches() == 0 || map.num_hosts() == 0) {
    throw std::runtime_error("snapshot: map needs a switch and a host");
  }
  if (!topo::connected(map)) {
    throw std::runtime_error("snapshot: map is not connected");
  }
  routing::UpDownOptions updown;
  if (!options.root_name.empty()) {
    updown.root = map.find_switch(options.root_name);
    if (!updown.root.has_value()) {
      throw std::runtime_error("snapshot: root " + options.root_name +
                               " names no switch of the map");
    }
  }
  const std::uint64_t count = payload.u64();
  const std::uint64_t want =
      std::uint64_t{map.num_hosts()} * 2 * map.num_switches();
  if (count != want) {
    throw std::runtime_error("snapshot: stored entry count " +
                             std::to_string(count) + " is not the map's " +
                             std::to_string(want));
  }
  const std::uint8_t* stored = payload.bytes(count);
  if (!payload.exhausted()) {
    throw std::runtime_error("snapshot: trailing bytes after the table");
  }

  // The orientation the engine routed under, then the stored entries.
  routing::RoutingResult routes{routing::orient(map, options.engine, updown),
                                {}};
  routes.routes = routing::RouteTable(map, routes.orientation);
  routing::RouteTable& table = routes.routes;
  const std::size_t states = table.num_states();
  for (std::size_t at = 0; at < count; ++at) {
    const auto dst = static_cast<std::uint32_t>(at / states);
    const auto state = static_cast<std::uint32_t>(at % states);
    if (stored[at] != 0xff && !table.usable_port(state, stored[at])) {
      throw std::runtime_error(
          "snapshot: entry toward " + map.name(table.hosts()[dst]) + " at " +
          map.name(table.state_switch(state)) + " names port " +
          std::to_string(stored[at]) + ", which carries no usable wire");
    }
    table.set_port(dst, state, stored[at]);
  }
  routing::HopSummary hops;
  {
    // Gone before certify() starts its own: idle workers keep their malloc
    // arenas, so two live pools would hold twice as many.
    common::CallPool pool;
    table.recount(pool);
    hops = routing::summarize(routes, pool).hops();
  }
  MapSnapshot snapshot{.epoch = epoch,
                       .created_at = common::SimTime::ns(created_ns),
                       .map = std::move(map),
                       .routes = std::move(routes),
                       .options = std::move(options),
                       .mean_hops = hops.mean,
                       .max_hops = hops.max};
  // The file stores no verdict; derive it, and refuse what the publish
  // gate would refuse.
  const analysis::AnalysisResult verdict = certify(snapshot);
  for (const analysis::Diagnostic& d : verdict.report.diagnostics()) {
    if (d.severity == analysis::Severity::kError) {
      throw std::runtime_error("snapshot: the stored table fails " + d.code +
                               ": " + d.message);
    }
  }
  return snapshot;
}

void write_snapshot_file(const std::string& path,
                         const MapSnapshot& snapshot) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  const std::string bytes = encode_snapshot(snapshot);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("short write to " + path);
  }
}

MapSnapshot read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return decode_snapshot(buffer.str());
}

}  // namespace sanmap::service
