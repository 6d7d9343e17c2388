#include "reference_walk.hpp"

#include <utility>

#include "analysis/lints.hpp"

namespace sanmap::reference {

namespace {

/// The dense id of the channel `wire` makes leaving `from`.
std::size_t channel_id(const topo::Topology& topo, topo::WireId wire,
                       topo::NodeId from) {
  return std::size_t{wire} * 2 + (topo.wire(wire).a.node == from ? 1 : 0);
}

}  // namespace

LegalityWalk::LegalityWalk(const topo::Topology& topo, std::vector<int> labels)
    : topo_(&topo), labels_(std::move(labels)) {}

void LegalityWalk::add(topo::NodeId src, topo::NodeId dst,
                       const routing::HostRoute& route) {
  // Leading up moves, then the down suffix; the first up move after a down
  // move is the offense.
  RouteLegality entry{src, dst, 0, true, -1};
  bool went_down = false;
  for (std::size_t i = 0; i < route.wires.size(); ++i) {
    const topo::Wire& wire = topo_->wire(route.wires[i]);
    const topo::NodeId from = route.nodes[i];
    const topo::NodeId to = wire.a.node == from ? wire.b.node : wire.a.node;
    const bool up = labels_[to] < labels_[from] ||
                    (labels_[to] == labels_[from] && to < from);
    if (up && !went_down) {
      entry.apex_hop = static_cast<int>(i) + 1;
    }
    if (up && went_down && entry.legal) {
      entry.legal = false;
      entry.offending_hop = static_cast<int>(i);
    }
    went_down = went_down || !up;
  }
  routes_.push_back(entry);
}

bool LegalityWalk::check(const analysis::LegalityCertificate& cert,
                         std::vector<std::string>* why) const {
  std::vector<analysis::IllegalRoute> illegal;
  for (const RouteLegality& entry : routes_) {
    if (!entry.legal) {
      illegal.push_back({entry.src, entry.dst, entry.offending_hop});
    }
  }
  return analysis::check_illegal_routes(*topo_, labels_, illegal, cert, why);
}

void DependencyWalk::add(const routing::HostRoute& route) {
  for (std::size_t i = 1; i < route.wires.size(); ++i) {
    graph_.add(channel_id(*topo_, route.wires[i - 1], route.nodes[i - 1]),
               channel_id(*topo_, route.wires[i], route.nodes[i]));
  }
}

bool Walk::check(const analysis::LegalityCertificate& cert,
                 std::vector<std::string>* why) const {
  if (!sound) {
    if (why != nullptr) {
      why->push_back("the route table is structurally broken");
    }
    return false;
  }
  return legality.check(cert, why);
}

bool Walk::check(const analysis::DeadlockCertificate& cert,
                 std::vector<std::string>* why) const {
  if (!sound) {
    if (why != nullptr) {
      why->push_back("the route table is structurally broken");
    }
    return false;
  }
  return dependencies.check(cert, why);
}

Walk walk_routes(const topo::Topology& topo, const routing::RouteTable& table,
                 std::vector<int> labels) {
  Walk walk{{}, true, 0, LegalityWalk(topo, std::move(labels)),
            DependencyWalk(topo)};
  table.for_each_route([&](topo::NodeId src, topo::NodeId dst,
                           const routing::HostRoute& route) {
    ++walk.routes;
    if (!analysis::lint_route(topo, src, dst, route, walk.structure)) {
      walk.sound = false;
    } else if (walk.sound) {
      walk.legality.add(src, dst, route);
      walk.dependencies.add(route);
    }
  });
  return walk;
}

}  // namespace sanmap::reference
