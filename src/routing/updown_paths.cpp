#include "routing/updown_paths.hpp"

#include <algorithm>
#include <utility>

#include "routing/congestion.hpp"

namespace sanmap::routing::detail {

UpDownPaths::UpDownPaths(const topo::Topology& topo,
                         const UpDownOrientation& orientation)
    : nodes_(topo.nodes()),
      index_of_(topo.node_capacity(), 0),
      n_(nodes_.size()) {
  for (std::size_t i = 0; i < n_; ++i) {
    index_of_[nodes_[i]] = i;
  }

  // Up adjacency and the cables of every node pair. Self-loop cables are
  // excluded: no valid route uses them.
  struct Cable {
    std::size_t lo;
    std::size_t hi;
    topo::WireId wire;
  };
  std::vector<Cable> cables;
  std::vector<std::vector<std::size_t>> up_adj(n_);
  for (const topo::WireId w : topo.wires()) {
    const topo::Wire& wire = topo.wire(w);
    if (wire.a.node == wire.b.node) {
      continue;
    }
    const std::size_t ia = index_of_[wire.a.node];
    const std::size_t ib = index_of_[wire.b.node];
    cables.push_back({std::min(ia, ib), std::max(ia, ib), w});
    if (orientation.goes_up(w, wire.a.node)) {
      up_adj[ia].push_back(ib);
    } else {
      up_adj[ib].push_back(ia);
    }
  }

  // Group the cables by node pair, pairs ascending, wires ascending within
  // a pair (the stable sort keeps topo.wires() order).
  std::stable_sort(cables.begin(), cables.end(),
                   [](const Cable& x, const Cable& y) {
                     return std::pair(x.lo, x.hi) < std::pair(y.lo, y.hi);
                   });
  wires_.reserve(cables.size());
  for (const Cable& c : cables) {
    if (groups_.empty() || groups_.back().lo != c.lo ||
        groups_.back().hi != c.hi) {
      groups_.push_back({c.lo, c.hi, wires_.size(), wires_.size()});
    }
    wires_.push_back(c.wire);
    groups_.back().end = wires_.size();
  }
  neighbor_begin_.assign(n_ + 1, 0);
  for (const CableGroup& g : groups_) {
    ++neighbor_begin_[g.lo + 1];
    ++neighbor_begin_[g.hi + 1];
  }
  for (std::size_t i = 0; i < n_; ++i) {
    neighbor_begin_[i + 1] += neighbor_begin_[i];
  }
  neighbors_.resize(neighbor_begin_[n_]);
  std::vector<std::size_t> fill(neighbor_begin_.begin(),
                                neighbor_begin_.end() - 1);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    neighbors_[fill[groups_[g].lo]++] = {groups_[g].hi, g};
    neighbors_[fill[groups_[g].hi]++] = {groups_[g].lo, g};
  }

  // Floyd-Warshall over the up digraph, recording one intermediate node
  // per improved pair for path reconstruction.
  dist_.assign(n_ * n_, kUnreachable);
  via_.assign(n_ * n_, -1);
  for (std::size_t i = 0; i < n_; ++i) {
    dist_[i * n_ + i] = 0;
    for (const std::size_t j : up_adj[i]) {
      dist_[i * n_ + j] = 1;
    }
  }
  for (std::size_t k = 0; k < n_; ++k) {
    const int* row_k = dist_.data() + k * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      int* row_i = dist_.data() + i * n_;
      const int dik = row_i[k];
      if (dik == kUnreachable) {
        continue;
      }
      int* via_i = via_.data() + i * n_;
      for (std::size_t j = 0; j < n_; ++j) {
        if (dik + row_k[j] < row_i[j]) {
          row_i[j] = dik + row_k[j];
          via_i[j] = static_cast<int>(k);
        }
      }
    }
  }
}

void UpDownPaths::up_cone(std::size_t si,
                          std::vector<std::size_t>& cone) const {
  cone.clear();
  const int* row = dist_.data() + si * n_;
  for (std::size_t k = 0; k < n_; ++k) {
    if (row[k] != kUnreachable) {
      cone.push_back(k);
    }
  }
}

int UpDownPaths::tied_apexes(std::size_t si, std::size_t di,
                             const std::vector<std::size_t>& cone,
                             std::vector<std::size_t>& apexes) const {
  apexes.clear();
  const int* up_row = dist_.data() + si * n_;
  const int* down_row = dist_.data() + di * n_;  // down(k -> di) = up(di, k)
  int best = kUnreachable;
  for (const std::size_t k : cone) {
    if (down_row[k] == kUnreachable) {
      continue;
    }
    const int total = up_row[k] + down_row[k];
    if (total < best) {
      best = total;
      apexes.clear();
    }
    if (total == best) {
      apexes.push_back(k);
    }
  }
  return best;
}

void UpDownPaths::path(std::size_t si, std::size_t apex, std::size_t di,
                       std::vector<std::size_t>& out) const {
  out.assign(1, si);
  expand(si, apex, out);
  // The down suffix apex -> di is the up path di -> apex reversed.
  const std::size_t mark = out.size();
  if (di != apex) {
    expand(di, apex, out);
    out.pop_back();  // apex is already in place
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(mark), out.end());
    out.push_back(di);
  }
}

bool UpDownPaths::coldest_route(const topo::Topology& topo, std::size_t si,
                                std::size_t di,
                                const std::vector<std::size_t>& apexes,
                                const std::vector<std::size_t>& load,
                                Choice& best, Choice& scratch) const {
  bool replaced = false;
  for (const std::size_t k : apexes) {
    path(si, k, di, scratch.sequence);
    scratch.wires.clear();
    scratch.max_load = 0;
    scratch.total_load = 0;
    for (std::size_t h = 0; h + 1 < scratch.sequence.size(); ++h) {
      const topo::NodeId from = nodes_[scratch.sequence[h]];
      const auto candidates =
          cables(scratch.sequence[h], scratch.sequence[h + 1]);
      topo::WireId pick = candidates.front();
      std::size_t pick_load = std::numeric_limits<std::size_t>::max();
      for (const topo::WireId w : candidates) {
        const bool a_to_b = topo.wire(w).a.node == from;
        const std::size_t have = load[channel_slot(w, a_to_b)];
        if (have < pick_load) {
          pick_load = have;
          pick = w;
        }
      }
      scratch.wires.push_back(pick);
      scratch.max_load = std::max(scratch.max_load, pick_load + 1);
      scratch.total_load += pick_load;
    }
    if (scratch.max_load < best.max_load ||
        (scratch.max_load == best.max_load &&
         scratch.total_load < best.total_load)) {
      std::swap(best, scratch);
      replaced = true;
    }
  }
  return replaced;
}

void UpDownPaths::expand(std::size_t i, std::size_t j,
                         std::vector<std::size_t>& out) const {
  if (i == j) {
    return;
  }
  const int k = via_[i * n_ + j];
  if (k == -1) {
    out.push_back(j);
    return;
  }
  expand(i, static_cast<std::size_t>(k), out);
  expand(static_cast<std::size_t>(k), j, out);
}

std::size_t UpDownPaths::group_of(std::size_t i, std::size_t j) const {
  for (std::size_t e = neighbor_begin_[i]; e < neighbor_begin_[i + 1]; ++e) {
    if (neighbors_[e].first == j) {
      return neighbors_[e].second;
    }
  }
  return groups_.size();
}

std::span<const topo::WireId> UpDownPaths::cables(std::size_t i,
                                                  std::size_t j) const {
  const std::size_t g = group_of(i, j);
  if (g == groups_.size()) {
    return {};
  }
  return cables(groups_[g]);
}

}  // namespace sanmap::routing::detail
