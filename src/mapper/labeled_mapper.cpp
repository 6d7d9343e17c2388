#include "mapper/labeled_mapper.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "mapper/turn_feasibility.hpp"

namespace sanmap::mapper {

namespace {

using LVertexId = std::uint32_t;
using LEdgeId = std::uint32_t;
using Label = std::uint32_t;

struct LVertex {
  simnet::Route probe_string;
  topo::NodeKind kind = topo::NodeKind::kSwitch;
  std::string host_name;
  Label label = 0;
  bool alive = true;
  /// Relative index -> the single tree edge there (M is a tree).
  std::map<int, LEdgeId> slots;
};

struct LEdge {
  LVertexId vertex[2];
  int index[2];
  bool alive = true;
};

/// The whole phase-structured algorithm in one self-contained runner.
class Runner {
 public:
  Runner(probe::ProbeEngine& engine, const MapperConfig& config)
      : engine_(engine), config_(config) {}

  MapResult run() {
    engine_.reset();
    initialize();
    explore();
    MapResult result;
    result.explorations = explorations_;
    result.peak_model_vertices = vertices_.size();
    result.merges = static_cast<std::size_t>(merge_phase());
    result.pruned = static_cast<std::size_t>(prune_phase());
    result.map = extract();
    result.probes = engine_.counters();
    result.elapsed = engine_.elapsed();
    return result;
  }

 private:
  // -- model construction ---------------------------------------------------

  LVertexId add_host_vertex(simnet::Route probe_string,
                            const std::string& name) {
    const auto id = static_cast<LVertexId>(vertices_.size());
    LVertex v;
    v.probe_string = std::move(probe_string);
    v.kind = topo::NodeKind::kHost;
    v.host_name = name;
    // Host labels are the interned host name: replicate hosts are labeled
    // the same from the start (§3.1.1 "its label is set to the host-name").
    const auto it = host_labels_.find(name);
    if (it != host_labels_.end()) {
      v.label = it->second;
    } else {
      v.label = next_label_++;
      host_labels_.emplace(name, v.label);
    }
    vertices_.push_back(std::move(v));
    return id;
  }

  LVertexId add_switch_vertex(simnet::Route probe_string) {
    const auto id = static_cast<LVertexId>(vertices_.size());
    LVertex v;
    v.probe_string = std::move(probe_string);
    v.kind = topo::NodeKind::kSwitch;
    v.label = next_label_++;  // a fresh label
    vertices_.push_back(std::move(v));
    return id;
  }

  LEdgeId add_edge(LVertexId a, int ia, LVertexId b, int ib) {
    const auto id = static_cast<LEdgeId>(edges_.size());
    edges_.push_back(LEdge{{a, b}, {ia, ib}, true});
    SANMAP_CHECK(!vertices_[a].slots.contains(ia));
    SANMAP_CHECK(!vertices_[b].slots.contains(ib));
    vertices_[a].slots.emplace(ia, id);
    vertices_[b].slots.emplace(ib, id);
    return id;
  }

  /// Far (vertex, index) of the edge at (v, i).
  std::pair<LVertexId, int> far_of(LVertexId v, int i) const {
    const LEdge& e = edges_[vertices_[v].slots.at(i)];
    const int end = (e.vertex[0] == v && e.index[0] == i) ? 0 : 1;
    return {e.vertex[1 - end], e.index[1 - end]};
  }

  // -- phases ---------------------------------------------------------------

  void initialize() {
    const auto& topo = engine_.network().topology();
    root_ = add_host_vertex(simnet::Route{},
                            topo.name(engine_.mapper_host()));
    const probe::Response first = engine_.probe(simnet::Route{});
    if (first.kind == probe::ResponseKind::kSwitch) {
      const LVertexId sw = add_switch_vertex(simnet::Route{});
      add_edge(root_, 0, sw, 0);
      frontier_.push_back(sw);
    } else if (first.kind == probe::ResponseKind::kHost) {
      const LVertexId other =
          add_host_vertex(simnet::Route{}, first.host_name);
      add_edge(root_, 0, other, 0);
    }
  }

  void explore() {
    const auto order = TurnFeasibility::exploration_order(/*adaptive=*/false);
    DepthCap cap(config_);
    std::size_t head = 0;
    while (head < frontier_.size()) {
      const LVertexId v = frontier_[head++];
      if (cap.exceeds(vertices_[v].probe_string.size())) {
        break;  // FIFO: probe strings are nondecreasing in length
      }
      const simnet::Route prefix = vertices_[v].probe_string;
      for (const simnet::Turn turn : order) {
        const probe::Response response =
            engine_.probe(simnet::extended(prefix, turn));
        if (response.kind == probe::ResponseKind::kNothing) {
          continue;
        }
        SANMAP_CHECK_MSG(vertices_.size() < LabeledMapper::kVertexLimit,
                         "labeled model tree exploded; use BerkeleyMapper "
                         "for networks of this size");
        const simnet::Route child_path = simnet::extended(prefix, turn);
        LVertexId child;
        if (response.kind == probe::ResponseKind::kHost) {
          child = add_host_vertex(child_path, response.host_name);
        } else {
          child = add_switch_vertex(child_path);
          frontier_.push_back(child);
        }
        add_edge(v, turn, child, 0);
      }
      ++explorations_;
    }
  }

  /// mergeLabels (§3.1.2): everything labeled like u2 is relabeled to u1's
  /// label and re-indexed by j1 - j2.
  void merge_labels(LVertexId u1, int j1, LVertexId u2, int j2) {
    const Label from = vertices_[u2].label;
    const Label to = vertices_[u1].label;
    SANMAP_CHECK(from != to);
    const int shift = j1 - j2;
    for (LVertexId w = 0; w < vertices_.size(); ++w) {
      if (vertices_[w].label != from) {
        continue;
      }
      vertices_[w].label = to;
      if (shift != 0) {
        std::map<int, LEdgeId> shifted;
        for (const auto& [index, e] : vertices_[w].slots) {
          LEdge& rec = edges_[e];
          const int end = (rec.vertex[0] == w && rec.index[0] == index)
                              ? 0
                              : 1;
          rec.index[end] = index + shift;
          shifted.emplace(index + shift, e);
        }
        vertices_[w].slots = std::move(shifted);
      }
    }
  }

  /// The MERGE phase: label deductions to fixpoint. Returns deductions made.
  int merge_phase() {
    int deductions = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      // Group live vertices by label.
      std::unordered_map<Label, std::vector<LVertexId>> groups;
      for (LVertexId v = 0; v < vertices_.size(); ++v) {
        if (vertices_[v].alive) {
          groups[vertices_[v].label].push_back(v);
        }
      }
      for (const auto& [label, members] : groups) {
        for (std::size_t a = 0; a < members.size() && !changed; ++a) {
          for (std::size_t b = a + 1; b < members.size() && !changed; ++b) {
            const LVertex& v1 = vertices_[members[a]];
            const LVertex& v2 = vertices_[members[b]];
            for (const auto& [index, e1] : v1.slots) {
              if (!v2.slots.contains(index)) {
                continue;
              }
              const auto [u1, j1] = far_of(members[a], index);
              const auto [u2, j2] = far_of(members[b], index);
              if (vertices_[u1].label != vertices_[u2].label) {
                merge_labels(u1, j1, u2, j2);
                ++deductions;
                changed = true;  // restart: labels and indices moved
                break;
              }
              // Lemma 2's invariant: same label implies the same indexing
              // offset, so parallel edges must agree on the far index.
              SANMAP_CHECK_MSG(j1 == j2,
                               "same-labeled vertices disagree on an edge "
                               "index: offset invariant violated");
            }
          }
        }
        if (changed) {
          break;
        }
      }
    }
    return deductions;
  }

  int prune_phase() {
    int deleted = 0;
    bool any = true;
    while (any) {
      any = false;
      for (LVertexId v = 0; v < vertices_.size(); ++v) {
        LVertex& rec = vertices_[v];
        if (!rec.alive || rec.kind != topo::NodeKind::kSwitch ||
            rec.slots.size() > 1) {
          continue;
        }
        // Detach the (at most one) incident edge.
        for (const auto& [index, e] : rec.slots) {
          LEdge& edge = edges_[e];
          edge.alive = false;
          const int end = (edge.vertex[0] == v && edge.index[0] == index)
                              ? 0
                              : 1;
          const LVertexId far = edge.vertex[1 - end];
          vertices_[far].slots.erase(edge.index[1 - end]);
        }
        rec.slots.clear();
        rec.alive = false;
        ++deleted;
        any = true;
      }
    }
    return deleted;
  }

  /// Builds M / L as a Topology.
  topo::Topology extract() {
    topo::Topology out;
    struct ClassInfo {
      topo::NodeId node = topo::kInvalidNode;
      int base = 0;
      bool base_known = false;
    };
    std::unordered_map<Label, ClassInfo> classes;

    // First pass: discover classes, kinds, and index ranges.
    std::unordered_map<Label, std::pair<int, int>> ranges;  // label -> lo,hi
    for (const LVertex& v : vertices_) {
      if (!v.alive) {
        continue;
      }
      if (!classes.contains(v.label)) {
        classes[v.label] = ClassInfo{};
        ranges[v.label] = {topo::kSwitchPorts, -topo::kSwitchPorts};
      }
      for (const auto& [index, e] : v.slots) {
        auto& [lo, hi] = ranges[v.label];
        lo = std::min(lo, index);
        hi = std::max(hi, index);
      }
    }
    for (const LVertex& v : vertices_) {
      if (!v.alive) {
        continue;
      }
      ClassInfo& info = classes[v.label];
      if (info.node == topo::kInvalidNode) {
        info.node = v.kind == topo::NodeKind::kHost
                        ? out.add_host(v.host_name)
                        : out.add_switch();
        const auto& [lo, hi] = ranges[v.label];
        if (lo <= hi) {
          SANMAP_CHECK_MSG(hi - lo < out.port_count(info.node),
                           "class index span exceeds port count");
          info.base = lo;
        }
        info.base_known = true;
      } else {
        // Every member of the class must agree on kind (and host name).
        SANMAP_CHECK(v.kind == out.kind(info.node));
        if (v.kind == topo::NodeKind::kHost) {
          SANMAP_CHECK(v.host_name == out.name(info.node));
        }
      }
    }

    // Second pass: connect class edges, deduplicating parallel model copies
    // of the same actual wire.
    for (const LEdge& e : edges_) {
      if (!e.alive) {
        continue;
      }
      const ClassInfo& ca = classes.at(vertices_[e.vertex[0]].label);
      const ClassInfo& cb = classes.at(vertices_[e.vertex[1]].label);
      const topo::Port pa = e.index[0] - ca.base;
      const topo::Port pb = e.index[1] - cb.base;
      const auto existing = out.wire_at(ca.node, pa);
      if (existing) {
        // Must be another model copy of the same actual wire.
        const auto far = out.peer(ca.node, pa);
        SANMAP_CHECK_MSG(far && far->node == cb.node && far->port == pb,
                         "one class port maps to two distinct wires");
        continue;
      }
      // The far port must be free too (or it is the same inconsistency).
      SANMAP_CHECK_MSG(!out.wire_at(cb.node, pb),
                       "one class port maps to two distinct wires");
      out.connect(ca.node, pa, cb.node, pb);
    }
    return out;
  }

  probe::ProbeEngine& engine_;
  const MapperConfig& config_;
  std::vector<LVertex> vertices_;
  std::vector<LEdge> edges_;
  std::vector<LVertexId> frontier_;
  std::unordered_map<std::string, Label> host_labels_;
  Label next_label_ = 0;
  LVertexId root_ = 0;
  std::size_t explorations_ = 0;
};

}  // namespace

LabeledMapper::LabeledMapper(probe::ProbeEngine& engine, MapperConfig config)
    : engine_(&engine), config_(config) {
  SANMAP_CHECK(config_.search_depth >= 1);
}

MapResult LabeledMapper::run() { return Runner(*engine_, config_).run(); }

}  // namespace sanmap::mapper
