#include "mapper/explorer.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mapper/turn_feasibility.hpp"

namespace sanmap::mapper {

probe::Response Explorer::issue_probe(const simnet::Route& prefix) {
  if (pipeline_) {
    return pipeline_->probe(prefix);
  }
  return engine_->probe(prefix);
}

void Explorer::run(MapResult& result) {
  while (head_ < frontier_.size()) {
    if (config_->max_explorations != 0 &&
        result.explorations >= config_->max_explorations) {
      break;  // runaway guard tripped; extract() will report the rest
    }
    const VertexId queued = frontier_[head_++];
    const Resolved r = model_->resolve(queued);
    if (!model_->vertex_alive(r.vertex) ||
        model_->vertex(r.vertex).explored) {
      continue;  // merged into an already-explored replicate: probes saved
    }
    if (cap_.exceeds(model_->vertex(r.vertex).probe_string.size())) {
      continue;  // beyond the Q + D + 1 bound (§3.1.4)
    }
    explore_vertex(r.vertex, result);
    ++result.explorations;
    result.peak_model_vertices =
        std::max(result.peak_model_vertices, model_->live_vertices());
    if (config_->record_trace) {
      result.trace.push_back(TracePoint{result.explorations,
                                        model_->live_vertices(),
                                        model_->live_edges(), pending()});
    }
  }
}

void Explorer::explore_vertex(VertexId v, MapResult& result) {
  // `v` is canonical (and alive) on entry. Its probe_string is the
  // discovery path whose entry port anchors v's slot indices; the probes
  // below extend exactly that path, so `turn` doubles as the slot index in
  // v's basis even if v merges into another replicate mid-exploration
  // (add_edge re-resolves indices through the alias table).
  const simnet::Route prefix = model_->vertex(v).probe_string;
  model_->mark_explored(v);

  TurnFeasibility feasibility;
  // Seed feasibility with ports already known from merged-in replicates.
  {
    const Resolved r = model_->resolve(v);
    for (const SlotTable::Entry& entry : model_->vertex(r.vertex).slots) {
      const int turn = entry.index - r.shift;
      if (turn >= simnet::kMinTurn && turn <= simnet::kMaxTurn) {
        feasibility.record_success(turn);
      }
    }
  }

  for (const simnet::Turn turn :
       TurnFeasibility::exploration_order(config_->port_order_heuristic)) {
    if (config_->port_order_heuristic && !feasibility.feasible(turn)) {
      continue;  // guaranteed ILLEGAL TURN: probe eliminated (§3.3)
    }
    if (config_->skip_known_ports) {
      // A slot inherited from a merged replicate already answers this turn.
      const Resolved r = model_->resolve(v);
      if (model_->vertex(r.vertex).slots.contains(turn + r.shift)) {
        feasibility.record_success(turn);
        continue;
      }
    }

    probe_route_.assign(prefix.begin(), prefix.end());
    probe_route_.push_back(turn);
    const probe::Response response = issue_probe(probe_route_);
    switch (response.kind) {
      case probe::ResponseKind::kSwitch: {
        const VertexId child =
            model_->add_switch_vertex(simnet::extended(prefix, turn));
        model_->add_edge(v, turn, child, 0);
        push(child);
        feasibility.record_success(turn);
        break;
      }
      case probe::ResponseKind::kHost: {
        const VertexId child = model_->add_host_vertex(
            simnet::extended(prefix, turn), response.host_name);
        model_->add_edge(v, turn, child, 0);
        feasibility.record_success(turn);
        break;
      }
      case probe::ResponseKind::kNothing:
        break;  // failures narrow nothing (§3.3)
    }
    // Interleaved merging: run deductions as soon as they are available so
    // later turns of this very exploration can be skipped.
    if (!config_->sabotage_skip_merges) {
      result.merges += static_cast<std::size_t>(model_->stabilize());
    }
  }
  if (pipeline_) {
    // The next frontier pop (and the mapper's final clock read) may depend
    // on this vertex's responses: complete the batch and substitute its
    // makespan for the serial sum.
    pipeline_->drain();
  }
}

}  // namespace sanmap::mapper
