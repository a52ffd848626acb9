// Full-stack transport: every message between two nodes rides a
// fresh onion circuit through the MixNetwork, with real X25519 /
// ChaCha20-Poly1305 layer cryptography. Orders of magnitude more
// expensive than the ideal Transport — intended for small-scale
// validation (the overlay protocol runs unchanged on top) and for the
// mix-mode demos, not for 1000-node sweeps.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "privacylink/link_transport.hpp"
#include "privacylink/mix_network.hpp"

namespace ppo::privacylink {

struct MixTransportOptions {
  /// Relays per circuit (fresh random route per message).
  std::size_t circuit_hops = 3;
};

class MixTransport final : public LinkTransport, public LinkReceiver {
 public:
  /// The transport shares `mix` (relay pool) across all senders;
  /// `is_online` plays the same gating role as in the ideal
  /// transport — the exit relay cannot hand the message to an
  /// offline destination. Each of the `senders` sender ids draws
  /// routes and onion nonces from its own stream split off `rng`,
  /// making every circuit a function of the sender's send sequence
  /// alone, the same for every shard count. The transport becomes the
  /// network's receiver.
  MixTransport(MixNetwork& mix, MixTransportOptions options, Rng rng,
               std::function<bool(graph::NodeId)> is_online,
               std::size_t senders);

  /// The message itself is the onion's payload.
  bool send(graph::NodeId from, graph::NodeId to,
            sim::Payload message) override;

  /// What leaves the exit relay: gated on the destination being
  /// online, then handed to this transport's receiver.
  void receive(graph::NodeId from, graph::NodeId to,
               std::span<const std::uint8_t> message) override;
  bool decodable(std::span<const std::uint8_t> message) const override {
    return receiver_->decodable(message);
  }

  std::uint64_t messages_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Total onion bytes put on the wire (all hops' ingress sizes).
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

  /// Sends lost because fewer live relays than circuit hops remained
  /// (graceful degradation: the message is counted sent and dropped
  /// instead of aborting the run).
  std::uint64_t circuit_failures() const {
    return circuit_failures_.load(std::memory_order_relaxed);
  }

 private:
  MixNetwork& mix_;
  MixTransportOptions options_;
  std::vector<Rng> sender_rngs_;  // one per sender
  std::function<bool(graph::NodeId)> is_online_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> circuit_failures_{0};
};

}  // namespace ppo::privacylink
