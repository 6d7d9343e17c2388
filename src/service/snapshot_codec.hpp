// Binary snapshot persistence: the catalog's at-rest format.
//
// Layout ("sanmap snapshot v3", little-endian):
//
//   magic   8 bytes  "SANMSNAP"
//   version u32      3
//   size    u64      payload byte count
//   check   u64      FNV-1a 64 of the payload bytes
//   payload:
//     epoch u64 | created_at_ns i64 | route_seed u64
//     root_name str | source str | engine u32 | optimize u8
//     map_text str
//     entry_count u64
//     entries u8 x entry_count
//   (str = u32 length + raw bytes)
//
// The map travels as its v1 text serialization (one format to maintain);
// the routes as the next-hop table §5.5 distributes, RouteTable::entries():
// one out-port byte per (destination host, switch state), 0xff where
// unset, H·2·S bytes in all. The stored entries are the table. Decode
// parses the map, rebuilds the orientation from the map, the root name and
// the engine (routing::orient), checks that every entry is unset or names
// a wired, non-loopback port of its switch, and certifies the result; a
// table with an ERROR diagnostic is refused, as the publish gate refuses
// it. Decode never routes: the seed and the optimizer flag are provenance.
// No verdict is stored; certify() derives it afresh. v1 and v2 files,
// which spelled out every route, are refused as unsupported.
#pragma once

#include <iosfwd>
#include <string>

#include "service/snapshot.hpp"

namespace sanmap::service {

/// Serializes a snapshot to the binary format.
std::string encode_snapshot(const MapSnapshot& snapshot);

/// Parses and verifies a binary snapshot, then certifies it. Throws
/// std::runtime_error on a bad magic/version, truncation, checksum
/// mismatch, a map the router could not have routed (no switch or host,
/// disconnected, an unknown root name), an entry count other than H·2·S,
/// an entry naming no usable port, or a table whose certification has an
/// ERROR diagnostic (the message names the first). The returned snapshot
/// keeps its recorded epoch (a catalog re-publish assigns a fresh one).
MapSnapshot decode_snapshot(const std::string& bytes);

/// File convenience wrappers (binary mode). Throw std::runtime_error on
/// I/O failure.
void write_snapshot_file(const std::string& path, const MapSnapshot& snapshot);
MapSnapshot read_snapshot_file(const std::string& path);

}  // namespace sanmap::service
