#include "privacylink/mix_transport.hpp"

#include <utility>

#include "common/check.hpp"

namespace ppo::privacylink {

MixTransport::MixTransport(MixNetwork& mix, MixTransportOptions options,
                           Rng rng,
                           std::function<bool(graph::NodeId)> is_online,
                           std::size_t senders)
    : mix_(mix), options_(options), is_online_(std::move(is_online)) {
  PPO_CHECK_MSG(options_.circuit_hops >= 1, "circuits need >= 1 hop");
  PPO_CHECK_MSG(static_cast<bool>(is_online_), "online oracle required");
  sender_rngs_.reserve(senders);
  for (std::size_t v = 0; v < senders; ++v)
    sender_rngs_.push_back(rng.split());
  mix_.set_receiver(*this);
}

bool MixTransport::send(graph::NodeId from, graph::NodeId to,
                        sim::Payload message) {
  PPO_CHECK_MSG(receiver_ != nullptr, "transport has no receiver");
  if (!is_online_(from)) return false;
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (mix_.live_relay_count() < options_.circuit_hops) {
    // Not enough live relays for a circuit: the message is lost but
    // the protocol keeps running and recovers once relays revive.
    circuit_failures_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bytes_sent_.fetch_add(
      message.size() + options_.circuit_hops * kOnionLayerOverhead,
      std::memory_order_relaxed);

  Rng& rng = sender_rngs_[from];
  const auto route = mix_.random_route(options_.circuit_hops, rng);
  // Relay hops run as the sender; the delivery belongs to the
  // destination actor, so only the exit hop can cross shards.
  mix_.send(route, message, rng, from, to);
  return true;
}

void MixTransport::receive(graph::NodeId from, graph::NodeId to,
                           std::span<const std::uint8_t> message) {
  if (!is_online_(to)) return;  // destination went dark
  delivered_.fetch_add(1, std::memory_order_relaxed);
  receiver_->receive(from, to, message);
}

}  // namespace ppo::privacylink
