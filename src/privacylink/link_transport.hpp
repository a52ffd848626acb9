// Abstract privacy-preserving link transport. Two realizations:
//  - Transport (transport.hpp): the ideal service the paper's
//    evaluation assumes (§IV) — reliable, low-latency, online-gated;
//  - MixTransport (mix_transport.hpp): every message actually rides
//    an onion circuit through the MixNetwork, with real per-layer
//    cryptography — the full-stack mode for demos and small-scale
//    validation that the protocol works over a real anonymity layer.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace ppo::privacylink {

class LinkTransport {
 public:
  virtual ~LinkTransport() = default;

  /// Sends a message from `from` to `to`; `on_deliver` runs at
  /// arrival time iff the destination is reachable then. Returns
  /// false when the sender cannot transmit at all (offline).
  virtual bool send(graph::NodeId from, graph::NodeId to,
                    sim::EventFn on_deliver) = 0;

  virtual std::uint64_t messages_sent() const = 0;
  virtual std::uint64_t messages_delivered() const = 0;
  std::uint64_t messages_dropped() const {
    return messages_sent() - messages_delivered();
  }
};

}  // namespace ppo::privacylink
