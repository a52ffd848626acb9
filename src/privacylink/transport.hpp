// Ideal anonymity-service transport (§IV): privacy-preserving links
// are reliable, low-latency and operational exactly when both ends are
// online. Payload delivery is type-erased — the sender packages the
// receiving node's handler invocation as a callback, and the transport
// contributes latency, the online gate, and accounting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "privacylink/delivery_journal.hpp"
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

class Transport final : public LinkTransport {
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

  /// Sends a message from `from` to `to`; `on_deliver` runs at the
  /// arrival time iff the destination is online then. Returns false
  /// (message not sent at all) only when the sender is offline.
  bool send(NodeId from, NodeId to, sim::EventFn on_deliver) override;

  std::uint64_t messages_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// --- checkpoint/restore -------------------------------------------
  /// While set, every scheduled delivery is committed to the journal
  /// (fire time + ticket) so it can be rebuilt after a restore.
  void set_journal(DeliveryJournal* journal) { journal_ = journal; }

  /// Re-inserts a pending delivery at its original canonical position:
  /// rebuilds the online gate + delivery counter wrapper around the
  /// payload (pass an empty fn for a fault-dropped message).
  void restore_delivery(NodeId to, double fire_time,
                        sim::EventTicket ticket, sim::EventFn payload);

  /// RNG streams and counters (latency draws must continue exactly).
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  sim::ShardedSimulator& sim_;
  TransportOptions options_;
  std::vector<Rng> sender_rngs_;  // one per sender
  std::function<bool(NodeId)> is_online_;
  DeliveryJournal* journal_ = nullptr;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace ppo::privacylink
