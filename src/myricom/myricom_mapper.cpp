#include "myricom/myricom_mapper.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/check.hpp"
#include "mapper/turn_feasibility.hpp"

namespace sanmap::myricom {

namespace {

using mapper::TurnFeasibility;
using simnet::Route;
using simnet::Turn;

/// One uniquely identified switch. Indices are relative to the entry port
/// of the canonical discovery prefix (index 0 = that entry port).
struct Known {
  Route prefix;
};

/// An edge between two known entities, in each one's relative index space.
struct PendingLink {
  std::size_t parent;  // known-switch id
  int parent_index;
  Route prefix;        // path entering the candidate (parent prefix + turn)
};

class Runner {
 public:
  Runner(simnet::Network& net, topo::NodeId mapper_host,
         const MyricomConfig& config)
      : net_(net), mapper_host_(mapper_host), config_(config) {
    slow_send_ = scale(net_.cost().send_overhead);
    slow_receive_ = scale(net_.cost().receive_overhead);
  }

  MyricomResult run() {
    MyricomResult result;

    // Is the adjacent node a switch? (One sw-category probe.)
    if (probe_returns(simnet::loopback_probe(Route{}),
                      counters_.switch_probes, &counters_.switch_hits)) {
      frontier_.push_back(PendingLink{kNoParent, 0, Route{}});
    } else if (const auto name = host_probe_name(Route{})) {
      // Degenerate host-to-host cable.
      direct_host_ = *name;
    }

    std::size_t head = 0;
    while (head < frontier_.size()) {
      const PendingLink entry = frontier_[head++];
      ++result.frontier_pops;
      process(entry);
    }

    result.map = extract();
    result.probes = counters_;
    result.elapsed = elapsed_;
    result.explored_switches = switches_.size();
    return result;
  }

 private:
  static constexpr std::size_t kNoParent =
      std::numeric_limits<std::size_t>::max();

  [[nodiscard]] common::SimTime scale(common::SimTime t) const {
    return common::SimTime::from_us(t.to_us() * config_.processor_slowdown);
  }

  /// Sends a loopback-style probe; true when it comes back to the mapper.
  bool probe_returns(const Route& route, std::uint64_t& sent_counter,
                     std::uint64_t* hit_counter) {
    ++sent_counter;
    const auto r = net_.send(mapper_host_, route);
    const bool hit = r.delivered() && r.destination == mapper_host_;
    if (hit) {
      if (hit_counter != nullptr) {
        ++*hit_counter;
      }
      elapsed_ += slow_send_ + r.latency + slow_receive_;
    } else {
      elapsed_ += slow_send_ + net_.cost().probe_timeout;
    }
    return hit;
  }

  /// Sends a host probe; the responding host's name on success.
  std::optional<std::string> host_probe_name(const Route& route) {
    ++counters_.host_probes;
    const auto r = net_.send(mapper_host_, route);
    if (r.delivered() && net_.topology().is_host(r.destination)) {
      ++counters_.host_hits;
      elapsed_ += slow_send_ + r.latency * 2 + slow_receive_ +
                  net_.cost().send_overhead + net_.cost().receive_overhead;
      return net_.topology().name(r.destination);
    }
    elapsed_ += slow_send_ + net_.cost().probe_timeout;
    return std::nullopt;
  }

  void process(const PendingLink& entry) {
    // Phase 1: the host sweep — all 14 turns, as the Figure 10 counts
    // imply. Hits are recorded only if this turns out to be a new switch
    // (for a replicate they are rediscoveries of known hosts).
    std::vector<std::pair<Turn, std::string>> hosts_found;
    TurnFeasibility feasibility;
    for (const Turn t : TurnFeasibility::exploration_order(true)) {
      if (const auto name = host_probe_name(simnet::extended(entry.prefix,
                                                             t))) {
        hosts_found.emplace_back(t, *name);
        feasibility.record_success(t);
      }
    }

    // Phase 2a: host anchoring (one of §4.1's probe-saving heuristics).
    // Hosts are uniquely identified and have a single wire, so a candidate
    // that saw a known host IS the switch that host is registered to — and
    // the two host indices give the port alignment for free, with zero
    // comparison probes.
    if (!hosts_found.empty()) {
      const auto known = host_edges_by_name_.find(hosts_found.front().second);
      if (known != host_edges_by_name_.end()) {
        const std::size_t b = known->second.first;
        // candidate index t corresponds to B index j: shift = j - t.
        const int shift = known->second.second - hosts_found.front().first;
        for (const auto& [t, name] : hosts_found) {
          const auto it = host_edges_by_name_.find(name);
          SANMAP_CHECK_MSG(it != host_edges_by_name_.end() &&
                               it->second ==
                                   std::make_pair(b, t + shift),
                           "host anchoring produced inconsistent alignment");
        }
        if (entry.parent != kNoParent) {
          add_switch_edge(entry.parent, entry.parent_index, b, shift);
        }
        return;
      }
      // A known-host miss means every found host is new, hence this switch
      // has never been explored (an explored switch's full host sweep would
      // have registered them): it is NEW, no comparisons needed.
    }

    // Phase 2b: comparison probes. A candidate that found no hosts is
    // host-free (the sweep covers all ports), so it can only replicate a
    // host-free explored switch — compare against those only, nearest BFS
    // depth first (replicates usually appear at similar depths), then most
    // recent first, early exit on a match.
    std::vector<std::size_t> order;
    if (hosts_found.empty()) {
      for (std::size_t i = host_free_switches_.size(); i-- > 0;) {
        order.push_back(host_free_switches_[i]);  // most recent first
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      const auto da = std::abs(static_cast<long>(switches_[a].prefix.size()) -
                               static_cast<long>(entry.prefix.size()));
      const auto db = std::abs(static_cast<long>(switches_[b].prefix.size()) -
                               static_cast<long>(entry.prefix.size()));
      return da < db;
    });
    for (const std::size_t b : order) {
      for (const Turn x : TurnFeasibility::exploration_order(true)) {
        Route comparison = simnet::extended(entry.prefix, x);
        const Route back = simnet::reversed(switches_[b].prefix);
        comparison.insert(comparison.end(), back.begin(), back.end());
        if (probe_returns(comparison, counters_.compare_probes,
                          &counters_.compare_hits)) {
          // The candidate IS switch b, entered at b-relative port -x.
          if (entry.parent != kNoParent) {
            add_switch_edge(entry.parent, entry.parent_index, b, -x);
          }
          return;
        }
      }
    }

    // Phase 3: a genuinely new switch. Record it, link it to its parent,
    // attach the hosts found in phase 1, then run the loop and sw sweeps.
    const std::size_t self = switches_.size();
    switches_.push_back(Known{entry.prefix});
    if (hosts_found.empty()) {
      host_free_switches_.push_back(self);
    }
    if (entry.parent == kNoParent) {
      // The mapper host hangs off this switch's entry port.
      add_host_edge(self, 0, net_.topology().name(mapper_host_));
    } else {
      add_switch_edge(entry.parent, entry.parent_index, self, 0);
    }
    for (const auto& [t, name] : hosts_found) {
      add_host_edge(self, t, name);
    }

    for (const Turn t : TurnFeasibility::exploration_order(true)) {
      if (config_.narrow_sweeps && !feasibility.feasible(t)) {
        continue;
      }
      const bool is_host_port =
          std::any_of(hosts_found.begin(), hosts_found.end(),
                      [&](const auto& h) { return h.first == t; });
      if (is_host_port) {
        continue;  // already resolved by the host sweep
      }
      // Loop test: a single-port loopback plug would bounce the worm
      // straight back. (Plugs cannot occur in our topology model, but the
      // probes are part of the algorithm's cost and are counted.)
      Route loop = simnet::extended(entry.prefix, t);
      loop.push_back(-t);
      {
        const Route back = simnet::reversed(entry.prefix);
        loop.insert(loop.end(), back.begin(), back.end());
      }
      probe_returns(loop, counters_.loop_probes, nullptr);

      // Switch test: bounce off the neighbor.
      Route sw = simnet::extended(entry.prefix, t);
      sw.push_back(0);
      sw.push_back(-t);
      {
        const Route back = simnet::reversed(entry.prefix);
        sw.insert(sw.end(), back.begin(), back.end());
      }
      if (probe_returns(sw, counters_.switch_probes,
                        &counters_.switch_hits)) {
        feasibility.record_success(t);
        frontier_.push_back(
            PendingLink{self, t, simnet::extended(entry.prefix, t)});
      }
    }
  }

  void add_switch_edge(std::size_t a, int ia, std::size_t b, int ib) {
    // Normalize so each actual wire is stored once even when both
    // directions are discovered.
    auto key = std::make_pair(std::make_pair(a, ia), std::make_pair(b, ib));
    auto mirror =
        std::make_pair(std::make_pair(b, ib), std::make_pair(a, ia));
    if (switch_edges_.contains(key) || switch_edges_.contains(mirror)) {
      return;
    }
    switch_edges_.insert(key);
  }

  void add_host_edge(std::size_t sw, int index, const std::string& name) {
    const auto it = host_edges_by_name_.find(name);
    if (it != host_edges_by_name_.end()) {
      // Rediscovery of a known host must agree (same switch, same port).
      SANMAP_CHECK_MSG(it->second == std::make_pair(sw, index),
                       "host " << name
                               << " rediscovered on a different port — "
                                  "replicate detection failed");
      return;
    }
    host_edges_by_name_.emplace(name, std::make_pair(sw, index));
  }

  topo::Topology extract() const {
    topo::Topology out;
    if (switches_.empty()) {
      const topo::NodeId me = out.add_host(net_.topology().name(mapper_host_));
      if (!direct_host_.empty()) {
        const topo::NodeId peer = out.add_host(direct_host_);
        out.connect(me, 0, peer, 0);
      }
      return out;
    }
    // Index ranges per switch for port normalization.
    std::vector<int> lo(switches_.size(), 0);
    std::vector<int> hi(switches_.size(), 0);
    const auto widen = [&](std::size_t s, int index) {
      lo[s] = std::min(lo[s], index);
      hi[s] = std::max(hi[s], index);
    };
    for (const auto& edge : switch_edges_) {
      widen(edge.first.first, edge.first.second);
      widen(edge.second.first, edge.second.second);
    }
    for (const auto& [name, at] : host_edges_by_name_) {
      widen(at.first, at.second);
    }
    std::vector<topo::NodeId> node(switches_.size());
    for (std::size_t s = 0; s < switches_.size(); ++s) {
      SANMAP_CHECK_MSG(hi[s] - lo[s] < topo::kSwitchPorts,
                       "switch index span exceeds port count");
      node[s] = out.add_switch();
    }
    for (const auto& edge : switch_edges_) {
      out.connect(node[edge.first.first], edge.first.second - lo[edge.first.first],
                  node[edge.second.first],
                  edge.second.second - lo[edge.second.first]);
    }
    for (const auto& [name, at] : host_edges_by_name_) {
      const topo::NodeId h = out.add_host(name);
      out.connect(h, 0, node[at.first], at.second - lo[at.first]);
    }
    return out;
  }

  simnet::Network& net_;
  topo::NodeId mapper_host_;
  const MyricomConfig& config_;
  common::SimTime slow_send_{};
  common::SimTime slow_receive_{};

  std::vector<Known> switches_;
  std::vector<std::size_t> host_free_switches_;
  std::vector<PendingLink> frontier_;
  std::set<std::pair<std::pair<std::size_t, int>, std::pair<std::size_t, int>>>
      switch_edges_;
  std::unordered_map<std::string, std::pair<std::size_t, int>>
      host_edges_by_name_;
  std::string direct_host_;

  MyricomCounters counters_;
  common::SimTime elapsed_{};
};

}  // namespace

MyricomMapper::MyricomMapper(simnet::Network& net, topo::NodeId mapper_host,
                             MyricomConfig config)
    : net_(&net), mapper_host_(mapper_host), config_(config) {
  SANMAP_CHECK_MSG(
      net.collision_model() == simnet::CollisionModel::kCutThrough,
      "the Myricom Algorithm requires cut-through routing; circuit "
      "self-collisions would make comparison probes unsound");
  const auto& topo = net.topology();
  SANMAP_CHECK(topo.node_alive(mapper_host) && topo.is_host(mapper_host));
}

MyricomResult MyricomMapper::run() {
  return Runner(*net_, mapper_host_, config_).run();
}

}  // namespace sanmap::myricom
