// Test-only LinkReceiver: records every message a transport (or the
// mix network) hands over, with its arrival time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "privacylink/link_transport.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::privacylink {

struct Inbox final : LinkReceiver {
  struct Delivery {
    graph::NodeId from;
    graph::NodeId to;
    double time;
    sim::Payload message;
  };

  explicit Inbox(const sim::ShardedSimulator& sim) : sim(sim) {}

  void receive(graph::NodeId from, graph::NodeId to,
               std::span<const std::uint8_t> message) override {
    got.push_back({from, to, sim.now(), {message.begin(), message.end()}});
  }
  bool decodable(std::span<const std::uint8_t>) const override {
    return true;
  }

  /// Arrival times of every delivery so far.
  std::vector<double> times() const {
    std::vector<double> out;
    for (const Delivery& d : got) out.push_back(d.time);
    return out;
  }

  const sim::ShardedSimulator& sim;
  std::vector<Delivery> got;
};

}  // namespace ppo::privacylink
