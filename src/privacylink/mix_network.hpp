// Simulated mix network: a pool of relays with X25519 keypairs that
// forward onion-wrapped messages hop by hop inside the simulator.
// This realizes the anonymity service of §III-B with real layered
// cryptography; the overlay evaluation runs on the ideal Transport
// (as the paper assumes), while examples, the timing-attack study and
// the mix benches exercise this substrate.
//
// Shard-safety: every hop latency of a message comes from a
// per-message stream seeded by one draw from the CALLER's rng, so a
// message's trajectory is a function of its sender's own send
// sequence — never of how other traffic interleaves. Relay replay
// lists are mutex-guarded and the counters are atomic (replay
// blocking is order-independent: however two copies interleave, the
// second sees the first's fingerprint). Relay crashes are data
// (schedule_crash windows, read-only while events run), not events.
//
// Every hop is an event of the network's own, carrying the message's
// latency stream and the onion bytes; the exit hands the payload to
// the network's receiver. Mix mode is outside the checkpoint scope.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "privacylink/link_transport.hpp"
#include "privacylink/onion.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::privacylink {

struct MixOptions {
  std::size_t num_relays = 16;
  /// Per-hop forwarding latency window, in shuffling periods.
  double min_hop_latency = 0.005;
  double max_hop_latency = 0.02;
  /// Relays remember hashes of forwarded messages and drop replays
  /// (§III-C's replay defence).
  bool replay_protection = true;
};

class MixNetwork final : public sim::EventHandler {
 public:
  MixNetwork(sim::ShardedSimulator& sim, MixOptions options, Rng rng);

  /// Where payloads leaving the exit relay go (from = the sending
  /// actor, to = the recipient). Set before the first send;
  /// MixTransport points it at itself.
  void set_receiver(LinkReceiver& receiver) { receiver_ = &receiver; }

  std::size_t num_relays() const { return relays_.size(); }
  const crypto::X25519Key& relay_public_key(RelayId r) const;

  /// Picks `hops` distinct random relays alive right now as a route.
  std::vector<RelayId> random_route(std::size_t hops, Rng& rng) const;

  /// Onion-wraps `payload` over `route` and injects it at the first
  /// relay. The receiver gets the payload when the exit relay
  /// finishes, unless a relay on the path is down or the message is
  /// tampered/replayed (then it is silently dropped, like a real mix).
  /// All of the message's hop latencies derive from ONE next_u64 draw
  /// on `rng` (the caller's stream). The relay hops run as `sender`,
  /// the final delivery as `recipient`: only the exit hop crosses
  /// shards.
  void send(const std::vector<RelayId>& route, crypto::BytesView payload,
            Rng& rng, sim::ActorId sender, sim::ActorId recipient);

  /// Injects a raw (already onion-wrapped) message at a relay — what
  /// an adversary replaying captured traffic would do. Used by the
  /// replay-defence tests and the mix_tunnel example. Every hop and the
  /// delivery run as `actor`; hop latencies come from the network's
  /// own stream, so inject is for single-shard runs.
  void inject(RelayId relay, crypto::BytesView message, sim::ActorId actor);

  /// Failure injection: the relay is down during [crash_at,
  /// revive_at), or forever when revive_at < 0. A revived relay keeps
  /// its keys and replay history (a restart, not a fresh identity).
  /// Install the full schedule before running the simulation — the
  /// windows are read-only while events execute.
  void schedule_crash(RelayId r, double crash_at, double revive_at = -1.0);

  bool relay_alive(RelayId r) const;
  std::size_t live_relay_count() const;

  std::uint64_t messages_forwarded() const {
    return forwarded_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t replays_blocked() const {
    return replays_blocked_.load(std::memory_order_relaxed);
  }

  // --- sim::EventHandler: a relay hop, or the exit's delivery ---
  void fire(const sim::Event& event) override;
  std::uint32_t handler_tag() const override { return 0x4D49584Eu; }

 private:
  /// Scheduled outage window; revive_at < 0 means forever.
  struct CrashWindow {
    double crash_at = 0.0;
    double revive_at = -1.0;
  };

  struct Relay {
    crypto::X25519KeyPair keys;
    /// Hashes of messages already forwarded (replay defence). Bounded
    /// in practice by pseudonym lifetime (§III-C); unbounded here as
    /// simulation runs are finite. Guarded by seen_mutex_.
    std::vector<std::uint64_t> seen;
    std::vector<CrashWindow> crashes;
  };

  /// Schedules `message`'s hop into `relay`, `delay` from now, as
  /// `actor` (the sender).
  void schedule_hop(sim::ActorId actor, double delay, RelayId relay,
                    const Rng& msg_rng, crypto::BytesView message,
                    sim::ActorId deliver_actor);
  void forward(RelayId relay, crypto::BytesView message, Rng msg_rng,
               sim::ActorId sender, sim::ActorId deliver_actor);
  bool alive_at(const Relay& r, double t) const;
  double hop_latency(Rng& rng) const;

  sim::ShardedSimulator& sim_;
  sim::HandlerId handler_;
  LinkReceiver* receiver_ = nullptr;
  MixOptions options_;
  Rng rng_;
  std::vector<Relay> relays_;
  /// One lock for all replay lists: uncontended at K = 1, and
  /// mix-mode sharded runs are small-scale by design.
  mutable std::mutex seen_mutex_;
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> replays_blocked_{0};
};

}  // namespace ppo::privacylink
