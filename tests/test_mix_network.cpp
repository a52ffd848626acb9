// Mix-network substrate: end-to-end delivery, relay failure, replays.
#include <gtest/gtest.h>

#include "link_inbox.hpp"
#include "privacylink/mix_network.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::privacylink {
namespace {

// One shard; messages go from actor 0 to actor 1.
constexpr sim::ActorId kFrom = 0;
constexpr sim::ActorId kTo = 1;

TEST(MixNetwork, DeliversThroughThreeHops) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 8}, Rng(1));
  Inbox inbox(sim);
  mix.set_receiver(inbox);
  Rng rng(2);

  const auto route = mix.random_route(3, rng);
  const crypto::Bytes payload = crypto::to_bytes("hello through the mix");
  mix.send(route, payload, rng, kFrom, kTo);
  sim.run_all();
  ASSERT_EQ(inbox.got.size(), 1u);
  EXPECT_EQ(inbox.got[0].message, payload);
  EXPECT_EQ(inbox.got[0].from, kFrom);
  EXPECT_EQ(inbox.got[0].to, kTo);
  EXPECT_EQ(mix.messages_forwarded(), 3u);
  EXPECT_EQ(mix.messages_dropped(), 0u);
}

TEST(MixNetwork, LatencyScalesWithHops) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixOptions opts;
  opts.num_relays = 10;
  opts.min_hop_latency = opts.max_hop_latency = 0.01;
  MixNetwork mix(sim, opts, Rng(3));
  Inbox inbox(sim);
  mix.set_receiver(inbox);
  Rng rng(4);

  mix.send(mix.random_route(1, rng), crypto::to_bytes("a"), rng, kFrom, kTo);
  sim.run_all();
  const double sent = sim.now();
  mix.send(mix.random_route(5, rng), crypto::to_bytes("b"), rng, kFrom, kTo);
  sim.run_all();
  ASSERT_EQ(inbox.got.size(), 2u);
  const double t1 = inbox.got[0].time;
  const double t5 = inbox.got[1].time - sent;
  EXPECT_NEAR(t1, 0.02, 1e-9);       // entry hop + exit delivery
  EXPECT_NEAR(t5, 0.06, 1e-9);       // 5 relay hops + delivery
}

TEST(MixNetwork, DeadRelayDropsTraffic) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 4}, Rng(5));
  Inbox inbox(sim);
  mix.set_receiver(inbox);
  Rng rng(6);
  const std::vector<RelayId> route{0, 1, 2};
  mix.schedule_crash(1, 0.0);  // down from the start, never revived
  mix.send(route, crypto::to_bytes("x"), rng, kFrom, kTo);
  sim.run_all();
  EXPECT_TRUE(inbox.got.empty());
  EXPECT_EQ(mix.messages_dropped(), 1u);
  EXPECT_FALSE(mix.relay_alive(1));
  EXPECT_TRUE(mix.relay_alive(0));
}

TEST(MixNetwork, RevivedRelayForwardsAgainWithSameIdentity) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 4}, Rng(5));
  Inbox inbox(sim);
  mix.set_receiver(inbox);
  Rng rng(6);
  const std::vector<RelayId> route{0, 1, 2};

  const auto key_before = mix.relay_public_key(1);
  mix.schedule_crash(1, 0.0, 1.0);  // down during [0, 1)
  EXPECT_EQ(mix.live_relay_count(), 3u);
  mix.send(route, crypto::to_bytes("x"), rng, kFrom, kTo);
  sim.run_all();
  EXPECT_TRUE(inbox.got.empty());
  EXPECT_FALSE(mix.relay_alive(1));

  sim.run_until(1.0);  // the outage window closes
  EXPECT_TRUE(mix.relay_alive(1));
  EXPECT_EQ(mix.live_relay_count(), 4u);
  // A restart, not a fresh identity: the keypair survives the crash,
  // so senders can keep using the published key.
  EXPECT_EQ(mix.relay_public_key(1), key_before);
  mix.send(route, crypto::to_bytes("y"), rng, kFrom, kTo);
  sim.run_all();
  ASSERT_EQ(inbox.got.size(), 1u);
  EXPECT_EQ(inbox.got[0].message, crypto::to_bytes("y"));
}

TEST(MixNetwork, RandomRouteAvoidsDeadRelays) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 5}, Rng(7));
  Rng rng(8);
  mix.schedule_crash(0, 0.0);
  mix.schedule_crash(1, 0.0);
  for (int i = 0; i < 50; ++i) {
    for (const RelayId r : mix.random_route(3, rng)) {
      EXPECT_GE(r, 2u);
    }
  }
  EXPECT_THROW(mix.random_route(4, rng), CheckError);
}

TEST(MixNetwork, FreshWrappingsOfSamePayloadBothPass) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 3}, Rng(9));
  Inbox inbox(sim);
  mix.set_receiver(inbox);
  Rng rng(10);
  const std::vector<RelayId> route{0, 1};

  const crypto::Bytes payload = crypto::to_bytes("again");
  mix.send(route, payload, rng, kFrom, kTo);
  mix.send(route, payload, rng, kFrom, kTo);
  sim.run_all();
  EXPECT_EQ(inbox.got.size(), 2u);
  EXPECT_EQ(mix.replays_blocked(), 0u);
}

TEST(MixNetwork, ReplayedWrappingBlocked) {
  // §III-C replay defence: a relay drops a byte-identical message the
  // second time it sees it.
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 2}, Rng(12));
  Inbox inbox(sim);
  mix.set_receiver(inbox);
  Rng rng(13);

  // Build a wrapped message addressed to relay 0 as exit.
  const crypto::Bytes payload = crypto::to_bytes("replayable");
  const crypto::Bytes wrapped = onion_wrap(
      {{kFinalHop, mix.relay_public_key(0)}},
      crypto::BytesView(payload.data(), payload.size()), rng);

  mix.inject(0, wrapped, kTo);
  mix.inject(0, wrapped, kTo);
  sim.run_all();
  EXPECT_EQ(inbox.got.size(), 1u);
  EXPECT_EQ(mix.replays_blocked(), 1u);
}

TEST(MixNetwork, ReplayProtectionCanBeDisabled) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 2, .replay_protection = false}, Rng(14));
  Inbox inbox(sim);
  mix.set_receiver(inbox);
  Rng rng(15);
  const crypto::Bytes payload = crypto::to_bytes("x");
  const crypto::Bytes wrapped = onion_wrap(
      {{kFinalHop, mix.relay_public_key(0)}},
      crypto::BytesView(payload.data(), payload.size()), rng);
  mix.inject(0, wrapped, kTo);
  mix.inject(0, wrapped, kTo);
  sim.run_all();
  EXPECT_EQ(inbox.got.size(), 2u);
}

TEST(MixNetwork, DistinctRelayKeys) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 6}, Rng(11));
  for (RelayId a = 0; a < 6; ++a)
    for (RelayId b = a + 1; b < 6; ++b)
      EXPECT_NE(mix.relay_public_key(a), mix.relay_public_key(b));
}

}  // namespace
}  // namespace ppo::privacylink
