// Ideal anonymity-service transport (§IV): privacy-preserving links
// are reliable, low-latency and operational exactly when both ends are
// online. A message is opaque bytes; the transport contributes
// latency, the online gate and accounting, and hands what arrives to
// its receiver.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "privacylink/link_transport.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::privacylink {

using NodeId = graph::NodeId;

struct TransportOptions {
  /// Per-message latency drawn uniformly from this window, in
  /// shuffling periods. "All messages sent through an overlay link
  /// are delivered in a short time" (§IV).
  double min_latency = 0.01;
  double max_latency = 0.05;
};

class Transport final : public LinkTransport, public sim::EventHandler {
 public:
  /// `is_online(v)` gates both send (source must be online) and
  /// delivery (destination must be online at arrival time).
  ///
  /// Each of the `senders` sender ids gets a private latency stream
  /// split off `rng` in id order: latencies depend only on the
  /// sender's own send sequence, never on the global interleaving, so
  /// they are the same for every shard count.
  Transport(sim::ShardedSimulator& sim, TransportOptions options, Rng rng,
            std::function<bool(NodeId)> is_online, std::size_t senders);

  /// Sends `message` from `from` to `to`; the receiver gets it at the
  /// arrival time iff the destination is online then. Returns false
  /// (message not sent at all) only when the sender is offline.
  bool send(NodeId from, NodeId to, sim::Payload message) override;

  std::uint64_t messages_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// --- checkpoint/restore -------------------------------------------
  /// RNG streams and counters (latency draws must continue exactly).
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  // --- sim::EventHandler: one kind, a message arriving ---
  void fire(const sim::Event& event) override;
  std::uint32_t handler_tag() const override { return 0x5452534Eu; }
  bool accepts(const sim::Event& event) const override;

 private:
  sim::ShardedSimulator& sim_;
  sim::HandlerId handler_;
  TransportOptions options_;
  std::vector<Rng> sender_rngs_;  // one per sender
  std::function<bool(NodeId)> is_online_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace ppo::privacylink
