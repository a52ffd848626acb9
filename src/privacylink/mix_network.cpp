#include "privacylink/mix_network.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.hpp"
#include "crypto/sha256.hpp"

namespace ppo::privacylink {

namespace {

enum Kind : std::uint8_t {
  kHop = 0,   // a = relay, b = delivery actor, payload = rng state + onion
  kExit = 1,  // a = sending actor, payload = the delivered payload
};
constexpr std::size_t kRngBytes = 4 * sizeof(std::uint64_t);

crypto::X25519Key random_key(Rng& rng) {
  crypto::X25519Key k{};
  for (std::size_t i = 0; i < k.size(); i += 8) {
    const std::uint64_t word = rng.next_u64();
    for (std::size_t j = 0; j < 8; ++j)
      k[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
  }
  return k;
}

std::uint64_t message_fingerprint(crypto::BytesView message) {
  const auto digest = crypto::sha256(message);
  std::uint64_t fp = 0;
  for (int i = 0; i < 8; ++i) fp |= static_cast<std::uint64_t>(digest[static_cast<std::size_t>(i)]) << (8 * i);
  return fp;
}

}  // namespace

MixNetwork::MixNetwork(sim::ShardedSimulator& sim, MixOptions options, Rng rng)
    : sim_(sim), handler_(sim.add_handler(*this)), options_(options),
      rng_(rng) {
  PPO_CHECK_MSG(options_.num_relays >= 1, "mix needs at least one relay");
  relays_.reserve(options_.num_relays);
  for (std::size_t i = 0; i < options_.num_relays; ++i)
    relays_.push_back(Relay{crypto::x25519_keypair(random_key(rng_)), {}, {}});
}

const crypto::X25519Key& MixNetwork::relay_public_key(RelayId r) const {
  PPO_CHECK_MSG(r < relays_.size(), "relay id out of range");
  return relays_[r].keys.public_key;
}

bool MixNetwork::alive_at(const Relay& r, double t) const {
  for (const CrashWindow& w : r.crashes)
    if (t >= w.crash_at && (w.revive_at < 0.0 || t < w.revive_at))
      return false;
  return true;
}

std::vector<RelayId> MixNetwork::random_route(std::size_t hops,
                                              Rng& rng) const {
  const double now = sim_.now();
  std::vector<RelayId> alive;
  for (RelayId r = 0; r < relays_.size(); ++r)
    if (alive_at(relays_[r], now)) alive.push_back(r);
  PPO_CHECK_MSG(alive.size() >= hops, "not enough live relays for route");
  return rng.sample(alive, hops);
}

double MixNetwork::hop_latency(Rng& rng) const {
  return rng.uniform_double(options_.min_hop_latency,
                            options_.max_hop_latency);
}

void MixNetwork::send(const std::vector<RelayId>& route,
                      crypto::BytesView payload, Rng& rng,
                      sim::ActorId sender, sim::ActorId recipient) {
  PPO_CHECK_MSG(!route.empty(), "empty mix route");
  PPO_CHECK_MSG(receiver_ != nullptr, "mix network has no receiver");
  std::vector<HopSpec> hops;
  hops.reserve(route.size());
  for (std::size_t i = 0; i < route.size(); ++i) {
    PPO_CHECK_MSG(route[i] < relays_.size(), "relay id out of range");
    const RelayId next = (i + 1 < route.size()) ? route[i + 1] : kFinalHop;
    hops.push_back(HopSpec{next, relays_[route[i]].keys.public_key});
  }
  const crypto::Bytes wrapped = onion_wrap(hops, payload, rng);
  // One caller-stream draw seeds every hop latency of this message:
  // the whole trajectory is a function of the sender's send sequence.
  Rng msg_rng(rng.next_u64());
  const double entry_latency = hop_latency(msg_rng);
  schedule_hop(sender, entry_latency, route.front(), msg_rng, wrapped,
               recipient);
}

void MixNetwork::schedule_hop(sim::ActorId actor, double delay,
                              RelayId relay, const Rng& msg_rng,
                              crypto::BytesView message,
                              sim::ActorId deliver_actor) {
  sim::Payload payload(kRngBytes + message.size());
  const std::array<std::uint64_t, 4> state = msg_rng.state();
  std::memcpy(payload.data(), state.data(), kRngBytes);
  std::copy(message.begin(), message.end(), payload.begin() + kRngBytes);
  sim_.schedule_for(actor, delay, handler_, kHop, relay, deliver_actor,
                    std::move(payload));
}

void MixNetwork::fire(const sim::Event& event) {
  if (event.kind == kExit) {
    receiver_->receive(static_cast<graph::NodeId>(event.a), event.target,
                       event.payload);
    return;
  }
  std::array<std::uint64_t, 4> state{};
  std::memcpy(state.data(), event.payload.data(), kRngBytes);
  Rng msg_rng(0);
  msg_rng.set_state(state);
  forward(static_cast<RelayId>(event.a),
          crypto::BytesView(event.payload).subspan(kRngBytes), msg_rng,
          event.target, static_cast<sim::ActorId>(event.b));
}

void MixNetwork::forward(RelayId relay, crypto::BytesView message,
                         Rng msg_rng, sim::ActorId sender,
                         sim::ActorId deliver_actor) {
  Relay& r = relays_[relay];
  if (!alive_at(r, sim_.now())) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (options_.replay_protection) {
    const std::uint64_t fp = message_fingerprint(message);
    bool replay;
    {
      const std::lock_guard<std::mutex> lock(seen_mutex_);
      replay = std::find(r.seen.begin(), r.seen.end(), fp) != r.seen.end();
      if (!replay) r.seen.push_back(fp);
    }
    if (replay) {
      replays_blocked_.fetch_add(1, std::memory_order_relaxed);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  auto layer = onion_unwrap(r.keys.private_key, message);
  if (!layer) {  // tampered or malformed: drop silently
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  const double latency = hop_latency(msg_rng);
  if (layer->next_hop == kFinalHop) {
    // The exit hop is the only shard crossing: relay hops stay on the
    // sender's shard, the delivery belongs to the destination actor.
    sim_.schedule_for(deliver_actor, latency, handler_, kExit, sender, 0,
                      std::move(layer->inner));
    return;
  }
  if (layer->next_hop >= relays_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  schedule_hop(sender, latency, layer->next_hop, msg_rng, layer->inner,
               deliver_actor);
}

void MixNetwork::inject(RelayId relay, crypto::BytesView message,
                        sim::ActorId actor) {
  PPO_CHECK_MSG(relay < relays_.size(), "relay id out of range");
  PPO_CHECK_MSG(receiver_ != nullptr, "mix network has no receiver");
  Rng msg_rng(rng_.next_u64());
  const double latency = hop_latency(msg_rng);
  schedule_hop(actor, latency, relay, msg_rng, message, actor);
}

void MixNetwork::schedule_crash(RelayId r, double crash_at, double revive_at) {
  PPO_CHECK_MSG(r < relays_.size(), "relay id out of range");
  PPO_CHECK_MSG(revive_at < 0.0 || revive_at > crash_at,
                "revival must come after the crash");
  relays_[r].crashes.push_back(CrashWindow{crash_at, revive_at});
}

bool MixNetwork::relay_alive(RelayId r) const {
  PPO_CHECK_MSG(r < relays_.size(), "relay id out of range");
  return alive_at(relays_[r], sim_.now());
}

std::size_t MixNetwork::live_relay_count() const {
  const double now = sim_.now();
  std::size_t live = 0;
  for (const Relay& r : relays_) live += alive_at(r, now) ? 1 : 0;
  return live;
}

}  // namespace ppo::privacylink
