#include "probe/probe_engine.hpp"

#include <algorithm>
#include <ostream>

#include "common/check.hpp"

namespace sanmap::probe {

const char* to_string(ResponseKind kind) {
  switch (kind) {
    case ResponseKind::kSwitch:
      return "switch";
    case ResponseKind::kHost:
      return "host";
    case ResponseKind::kNothing:
      return "nothing";
  }
  return "?";
}

ProbeEngine::ProbeEngine(simnet::Network& net, topo::NodeId mapper_host,
                         ProbeOptions options)
    : net_(&net),
      mapper_host_(mapper_host),
      options_(std::move(options)),
      election_rng_(options_.election_seed),
      jitter_rng_(options_.jitter_seed) {
  SANMAP_CHECK(options_.jitter >= 0.0 && options_.jitter < 1.0);
  const auto& topo = net_->topology();
  SANMAP_CHECK_MSG(topo.node_alive(mapper_host) && topo.is_host(mapper_host),
                   "mapper host must be a live host");
  if (!options_.participants.empty()) {
    SANMAP_CHECK_MSG(
        std::find(options_.participants.begin(), options_.participants.end(),
                  mapper_host) != options_.participants.end(),
        "the mapper host itself must participate");
  }
  unyielded_.assign(net_->topology().node_capacity(), false);
  if (options_.election) {
    // Every participant other than the winner (this engine's mapper) starts
    // as an active contender that must be suppressed. Contenders are
    // physical daemons: once one yields it stays yielded for the lifetime
    // of this engine (a session), across reset()s — a multi-pass session
    // (RobustMapper re-running BerkeleyMapper, whose run() resets the
    // engine) must not re-pay per-contender arbitration every pass.
    for (const topo::NodeId h : net_->topology().hosts()) {
      if (h != mapper_host_ && participates(h)) {
        unyielded_[h] = true;
      }
    }
    // The winner itself does not begin probing at time zero; the offset is
    // drawn once per session and charged until probing actually starts.
    election_start_offset_ = common::SimTime::from_us(
        election_rng_.exponential(options_.election_start_mean.to_us()));
  }
  reset();
}

void ProbeEngine::reset() {
  counters_ = ProbeCounters{};
  transcript_.clear();
  elapsed_ = common::SimTime{};
  jitter_rng_.reseed(options_.jitter_seed);
  if (options_.election && !session_started_) {
    // No probe has been sent yet, so the winner's delayed start is still
    // ahead of us. Once probing has begun, later resets (multi-pass
    // sessions) do not re-charge it: the winner is already running.
    elapsed_ += election_start_offset_;
  }
}

bool ProbeEngine::participates(topo::NodeId host) const {
  if (options_.participants.empty()) {
    return true;
  }
  return std::find(options_.participants.begin(), options_.participants.end(),
                   host) != options_.participants.end();
}

void ProbeEngine::charge_probe(common::SimTime cost) {
  if (options_.jitter > 0.0) {
    cost = common::SimTime::from_us(
        cost.to_us() * (1.0 + options_.jitter * jitter_rng_.uniform()));
    if (options_.stall_probability > 0.0 &&
        jitter_rng_.chance(options_.stall_probability)) {
      cost += common::SimTime::from_us(
          jitter_rng_.uniform(0.0, options_.stall_max.to_us()));
    }
  }
  elapsed_ += cost;
}

template <typename Accept>
std::optional<simnet::DeliveryResult> ProbeEngine::send_with_retries(
    const simnet::Route& route, std::uint64_t& sent, Accept&& accepted) {
  const auto& cost = net_->cost();
  for (int attempt = 0; attempt <= options_.retries; ++attempt) {
    ++sent;
    session_started_ = true;
    const auto result =
        net_->send(mapper_host_, route, nullptr, clock_base_ + elapsed_);
    if (accepted(result)) {
      return result;
    }
    charge_probe(cost.send_overhead + cost.probe_timeout);
  }
  return std::nullopt;
}

bool ProbeEngine::switch_probe(const simnet::Route& prefix) {
  const auto& cost = net_->cost();
  simnet::loopback_probe_into(prefix, loopback_);
  const auto result = send_with_retries(
      loopback_, counters_.switch_probes,
      [&](const simnet::DeliveryResult& r) {
        return r.delivered() && r.destination == mapper_host_;
      });
  if (options_.record_transcript) {
    transcript_.push_back(
        TranscriptEntry{loopback_, 's', result.has_value(), {}});
  }
  if (!result) {
    return false;
  }
  ++counters_.switch_hits;
  charge_probe(cost.send_overhead + result->latency + cost.receive_overhead);
  return true;
}

bool ProbeEngine::echo_probe(const simnet::Route& route) {
  const auto& cost = net_->cost();
  const auto result = send_with_retries(
      route, counters_.switch_probes, [&](const simnet::DeliveryResult& r) {
        return r.delivered() && r.destination == mapper_host_;
      });
  if (options_.record_transcript) {
    transcript_.push_back(TranscriptEntry{route, 'e', result.has_value(), {}});
  }
  if (!result) {
    return false;
  }
  ++counters_.switch_hits;
  charge_probe(cost.send_overhead + result->latency + cost.receive_overhead);
  return true;
}

std::optional<topo::NodeId> ProbeEngine::identifying_switch_probe(
    const simnet::Route& prefix) {
  SANMAP_CHECK_MSG(
      net_->extensions().self_identifying_switches,
      "identifying_switch_probe needs self-identifying switch hardware "
      "(simnet::HardwareExtensions)");
  const auto& cost = net_->cost();
  simnet::loopback_probe_into(prefix, loopback_);
  const auto result = send_with_retries(
      loopback_, counters_.switch_probes,
      [&](const simnet::DeliveryResult& r) {
        return r.delivered() && r.destination == mapper_host_;
      });
  if (options_.record_transcript) {
    transcript_.push_back(
        TranscriptEntry{loopback_, 'i', result.has_value(), {}});
  }
  if (!result) {
    return std::nullopt;
  }
  ++counters_.switch_hits;
  charge_probe(cost.send_overhead + result->latency + cost.receive_overhead);
  SANMAP_CHECK(result->bounce_switch != topo::kInvalidNode);
  return result->bounce_switch;
}

std::optional<ProbeEngine::WildResponse> ProbeEngine::wild_probe(
    const simnet::Route& route) {
  SANMAP_CHECK_MSG(net_->extensions().hosts_answer_early_hits,
                   "wild_probe needs the hit-a-host-too-soon firmware "
                   "change (simnet::HardwareExtensions)");
  const auto& cost = net_->cost();
  // Any host the worm reaches reads it — even too soon. Reaching a
  // non-participating host still ends the retry loop: resending cannot wake
  // a daemon that is not running.
  const auto result = send_with_retries(
      route, counters_.wild_probes, [](const simnet::DeliveryResult& r) {
        return r.status == simnet::DeliveryStatus::kDelivered ||
               r.status == simnet::DeliveryStatus::kHitHostTooSoon;
      });
  if (!result) {
    // Every rejected attempt was already charged send_overhead +
    // probe_timeout by the retry loop; there is no further cost to add.
    if (options_.record_transcript) {
      transcript_.push_back(TranscriptEntry{route, 'w', false, {}});
    }
    return std::nullopt;
  }
  if (!participates(result->destination)) {
    // The worm reached a host with no daemon: the attempt was accepted by
    // the retry loop (and therefore not charged), the message is consumed
    // unanswered, and the mapper waits out one full timeout. The transcript
    // records the network-level outcome — the route does reach that host —
    // so a replay against an all-answering quiescent network agrees.
    if (options_.record_transcript) {
      transcript_.push_back(TranscriptEntry{
          route, 'w', true, net_->topology().name(result->destination)});
    }
    charge_probe(cost.send_overhead + cost.probe_timeout);
    return std::nullopt;
  }
  if (options_.record_transcript) {
    transcript_.push_back(TranscriptEntry{
        route, 'w', true, net_->topology().name(result->destination)});
  }
  ++counters_.wild_hits;
  charge_probe(cost.send_overhead + result->latency + cost.receive_overhead +
               cost.send_overhead + result->latency + cost.receive_overhead);
  // The message path visited hops wires; the host sits after consuming
  // hops - 1 turns (the first wire leaves the mapper before any turn).
  return WildResponse{net_->topology().name(result->destination),
                      result->hops - 1};
}

std::optional<std::string> ProbeEngine::host_probe(
    const simnet::Route& prefix) {
  const auto& cost = net_->cost();
  const auto result = send_with_retries(
      prefix, counters_.host_probes,
      [](const simnet::DeliveryResult& r) { return r.delivered(); });
  if (!result) {
    if (options_.record_transcript) {
      transcript_.push_back(TranscriptEntry{prefix, 'h', false, {}});
    }
    return std::nullopt;
  }
  const topo::NodeId host = result->destination;
  if (!participates(host)) {
    // No mapper daemon is running there; the message is consumed and never
    // answered. As with wild probes, the transcript records that the route
    // reaches this host (the network-level outcome a replay must
    // reproduce), not the session-level silence.
    if (options_.record_transcript) {
      transcript_.push_back(
          TranscriptEntry{prefix, 'h', true, net_->topology().name(host)});
    }
    charge_probe(cost.send_overhead + cost.probe_timeout);
    return std::nullopt;
  }
  common::SimTime arbitration{};
  if (options_.election && unyielded_[host]) {
    // The contender is busy actively mapping. It compares the carried
    // interface addresses, yields to us (the higher address), and answers
    // late — one arbitration delay per contender.
    unyielded_[host] = false;
    arbitration = options_.election_arbitration;
  }
  ++counters_.host_hits;
  // Round trip: our send, outbound flight, remote handler, reply flight
  // (the reply retraces the path; quiescent network, so it arrives), our
  // receive.
  charge_probe(cost.send_overhead + result->latency + cost.receive_overhead +
               cost.send_overhead + result->latency + cost.receive_overhead +
               arbitration);
  if (options_.record_transcript) {
    transcript_.push_back(
        TranscriptEntry{prefix, 'h', true, net_->topology().name(host)});
  }
  return net_->topology().name(host);
}

Response ProbeEngine::probe(const simnet::Route& prefix) {
  switch (options_.order) {
    case ProbeOrder::kSwitchFirst: {
      if (switch_probe(prefix)) {
        return Response{ResponseKind::kSwitch, {}};
      }
      if (auto host = host_probe(prefix)) {
        return Response{ResponseKind::kHost, std::move(*host)};
      }
      return Response{};
    }
    case ProbeOrder::kHostFirst: {
      if (auto host = host_probe(prefix)) {
        return Response{ResponseKind::kHost, std::move(*host)};
      }
      if (switch_probe(prefix)) {
        return Response{ResponseKind::kSwitch, {}};
      }
      return Response{};
    }
    case ProbeOrder::kBoth: {
      const bool sw = switch_probe(prefix);
      auto host = host_probe(prefix);
      if (host) {
        return Response{ResponseKind::kHost, std::move(*host)};
      }
      if (sw) {
        return Response{ResponseKind::kSwitch, {}};
      }
      return Response{};
    }
  }
  SANMAP_CHECK(false);
  return Response{};
}

void ProbeEngine::write_transcript(std::ostream& os) const {
  for (const TranscriptEntry& entry : transcript_) {
    os << entry.category << ' ' << (entry.answered ? 1 : 0) << ' '
       << (entry.response.empty() ? "-" : entry.response) << ' '
       << simnet::to_string(entry.route) << '\n';
  }
}

bool transcript_replays(const std::vector<TranscriptEntry>& transcript,
                        simnet::Network& net, topo::NodeId mapper_host) {
  const auto& topo = net.topology();
  for (const TranscriptEntry& entry : transcript) {
    const auto result = net.send(mapper_host, entry.route);
    switch (entry.category) {
      case 's':
      case 'e':
      case 'i': {
        const bool hit =
            result.delivered() && result.destination == mapper_host;
        if (hit != entry.answered) {
          return false;
        }
        break;
      }
      case 'h': {
        const bool hit = result.delivered();
        if (hit != entry.answered) {
          return false;
        }
        if (hit && topo.name(result.destination) != entry.response) {
          return false;
        }
        break;
      }
      case 'w': {
        const bool hit =
            result.status == simnet::DeliveryStatus::kDelivered ||
            result.status == simnet::DeliveryStatus::kHitHostTooSoon;
        if (hit != entry.answered) {
          return false;
        }
        if (hit && topo.name(result.destination) != entry.response) {
          return false;
        }
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

}  // namespace sanmap::probe
