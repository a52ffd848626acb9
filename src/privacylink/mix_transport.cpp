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
}

bool MixTransport::send(graph::NodeId from, graph::NodeId to,
                        sim::EventFn on_deliver) {
  if (!is_online_(from)) return false;
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (mix_.live_relay_count() < options_.circuit_hops) {
    // Not enough live relays for a circuit: the message is lost but
    // the protocol keeps running and recovers once relays revive.
    circuit_failures_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // The simulated payload only needs to identify the delivery: the
  // real content stays a closure, the bytes exercise the crypto path.
  crypto::Bytes payload(8);
  for (int i = 0; i < 4; ++i) {
    payload[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(from >> (8 * i));
    payload[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(to >> (8 * i));
  }
  bytes_sent_.fetch_add(
      payload.size() + options_.circuit_hops * kOnionLayerOverhead,
      std::memory_order_relaxed);

  Rng& rng = sender_rngs_[from];
  const auto route = mix_.random_route(options_.circuit_hops, rng);
  // Relay hops run as the sender; the delivery belongs to the
  // destination actor, so only the exit hop can cross shards.
  mix_.send(route, std::move(payload),
            [this, to, fn = std::move(on_deliver)](crypto::Bytes) {
              if (!is_online_(to)) return;  // destination went dark
              delivered_.fetch_add(1, std::memory_order_relaxed);
              fn();
            },
            rng, from, to);
  return true;
}

}  // namespace ppo::privacylink
