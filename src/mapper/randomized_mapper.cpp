#include "mapper/randomized_mapper.hpp"

#include "common/check.hpp"
#include "mapper/explorer.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::mapper {

RandomizedMapper::RandomizedMapper(probe::ProbeEngine& engine,
                                   RandomizedConfig config)
    : engine_(&engine), config_(config), rng_(config.seed) {
  SANMAP_CHECK(config_.base.search_depth >= 1);
  SANMAP_CHECK(config_.wild_probes >= 0);
}

void RandomizedMapper::absorb_path(const simnet::Route& route,
                                   int consumed_turns,
                                   const std::string& host_name,
                                   VertexId root_switch,
                                   Explorer& explorer) {
  // Walk the consumed prefix through the model, creating the chain pieces
  // that are not there yet. At each step we carry the slot index of the
  // incoming wire in the current vertex's own frame: the next turn t lands
  // on slot (incoming + t) because relative turns compose additively.
  VertexId cur = root_switch;
  int in_index = 0;  // the mapper-side wire anchors the root switch frame
  simnet::Route prefix;
  for (int i = 0; i < consumed_turns; ++i) {
    const simnet::Turn turn = route[static_cast<std::size_t>(i)];
    prefix.push_back(turn);
    const Resolved r = model_.resolve(cur);
    SANMAP_CHECK(model_.vertex_alive(r.vertex));
    const int slot = in_index + turn + r.shift;
    const Vertex& rec = model_.vertex(r.vertex);
    const auto here = rec.slots.at(slot);
    const bool last = (i + 1 == consumed_turns);
    if (!here.empty()) {
      // Known wire: follow it.
      const auto [far, far_index] =
          model_.far_end(here.front().edge, r.vertex, slot);
      if (last) {
        // The path ends at a host; the known far end must agree.
        SANMAP_CHECK_MSG(
            model_.vertex(far).kind == topo::NodeKind::kHost &&
                model_.vertex(far).host_name == host_name,
            "wild probe contradicts an existing model edge");
        return;
      }
      SANMAP_CHECK_MSG(model_.vertex(far).kind == topo::NodeKind::kSwitch,
                       "wild probe passed through a model host");
      cur = far;
      in_index = far_index;
      continue;
    }
    // New territory.
    if (last) {
      const VertexId host = model_.add_host_vertex(prefix, host_name);
      model_.add_edge(r.vertex, slot - r.shift, host, 0);
      return;
    }
    const VertexId child = model_.add_switch_vertex(prefix);
    model_.add_edge(r.vertex, slot - r.shift, child, 0);
    explorer.push(child);
    cur = child;
    in_index = 0;  // the child's frame is anchored at this entry
  }
}

MapResult RandomizedMapper::run() {
  engine_->reset();
  MapResult result;
  // The wild probes use the depth as a length: resolve a lazy cap up front.
  config_.base.search_depth = resolved_search_depth(config_.base);
  config_.base.exact_search_depth = nullptr;

  const auto& topo = engine_->network().topology();
  const VertexId root = model_.add_host_vertex(
      simnet::Route{}, topo.name(engine_->mapper_host()));
  Explorer explorer(model_, *engine_, config_.base);

  const probe::Response first = engine_->probe(simnet::Route{});
  if (first.kind == probe::ResponseKind::kSwitch) {
    const VertexId sw = model_.add_switch_vertex(simnet::Route{});
    model_.add_edge(root, 0, sw, 0);
    explorer.push(sw);

    // Phase 1: coupon collecting. Fire wild probes of maximal depth in
    // random directions; every answer contributes its whole path.
    const int depth = config_.base.search_depth;
    for (int p = 0; p < config_.wild_probes; ++p) {
      simnet::Route route;
      route.reserve(static_cast<std::size_t>(depth));
      for (int i = 0; i < depth; ++i) {
        // Uniform over {-7..-1, +1..+7}; 0-turns only bounce back.
        const auto raw = static_cast<simnet::Turn>(rng_.range(1, 14));
        route.push_back(raw <= 7 ? raw : 7 - raw);
      }
      if (const auto wild = engine_->wild_probe(route)) {
        absorb_path(route, wild->consumed_turns, wild->host_name, sw,
                    explorer);
        result.merges += static_cast<std::size_t>(model_.stabilize());
      }
    }

    // Phase 2: breadth-first completion of the dangling edges.
    explorer.run(result);
  } else if (first.kind == probe::ResponseKind::kHost) {
    const VertexId other =
        model_.add_host_vertex(simnet::Route{}, first.host_name);
    model_.add_edge(root, 0, other, 0);
  }

  result.merges += static_cast<std::size_t>(model_.stabilize());
  result.pruned = static_cast<std::size_t>(model_.prune());
  result.map = model_.extract();
  // Shed separated clusters the degree-based prune cannot reach (see
  // BerkeleyMapper::run).
  {
    const std::size_t before = result.map.num_nodes();
    result.map = topo::core(result.map);
    result.pruned += before - result.map.num_nodes();
  }
  result.probes = engine_->counters();
  result.elapsed = engine_->elapsed();
  return result;
}

}  // namespace sanmap::mapper
