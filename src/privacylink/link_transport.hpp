// Abstract privacy-preserving link transport. Two realizations:
//  - Transport (transport.hpp): the ideal service the paper's
//    evaluation assumes (§IV) — reliable, low-latency, online-gated;
//  - MixTransport (mix_transport.hpp): every message actually rides
//    an onion circuit through the MixNetwork, with real per-layer
//    cryptography — the full-stack mode for demos and small-scale
//    validation that the protocol works over a real anonymity layer.
//
// A message is bytes. Each transport hands every delivery to one
// LinkReceiver wired before the first send; a layer that interposes
// (the fault wrapper over any transport, the mix transport over its
// network) points the layer below at itself.
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace ppo::privacylink {

/// Spare capacity a sender reserves past its message so that a layer
/// appending a trailer (the fault wrapper's delay) never reallocates.
inline constexpr std::size_t kLinkTrailerReserve = 8;

class LinkReceiver {
 public:
  /// A message from `from` arrived at `to`; runs as `to`.
  virtual void receive(graph::NodeId from, graph::NodeId to,
                       std::span<const std::uint8_t> message) = 0;

  /// Restore gate: whether `message` is one this receiver can decode
  /// (EventHandler::accepts of the layer that holds it in flight).
  virtual bool decodable(std::span<const std::uint8_t> message) const = 0;

 protected:
  // Wired by address: a receiver is never copied.
  LinkReceiver() = default;
  LinkReceiver(const LinkReceiver&) = delete;
  LinkReceiver& operator=(const LinkReceiver&) = delete;
  ~LinkReceiver() = default;
};

class LinkTransport {
 public:
  virtual ~LinkTransport() = default;

  /// Sends `message` from `from` to `to`; the receiver gets it at
  /// arrival time iff the destination is reachable then. Returns false
  /// when the sender cannot transmit at all (offline).
  virtual bool send(graph::NodeId from, graph::NodeId to,
                    sim::Payload message) = 0;

  /// Where deliveries go. Set before the first send.
  void set_receiver(LinkReceiver& receiver) { receiver_ = &receiver; }

  virtual std::uint64_t messages_sent() const = 0;
  virtual std::uint64_t messages_delivered() const = 0;
  std::uint64_t messages_dropped() const {
    return messages_sent() - messages_delivered();
  }

 protected:
  LinkReceiver* receiver_ = nullptr;
};

}  // namespace ppo::privacylink
