// MixTransport and the full-stack mode: the overlay protocol running
// over real onion circuits instead of the ideal transport.
#include <gtest/gtest.h>

#include "churn/churn_model.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "overlay/sharded_service.hpp"
#include "link_inbox.hpp"
#include "privacylink/mix_transport.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::privacylink {
namespace {

TEST(MixTransport, DeliversThroughCircuit) {
  sim::ShardedSimulator sim({.num_actors = 4});
  MixNetwork mix(sim, {.num_relays = 6}, Rng(1));
  std::vector<char> online(4, 1);
  MixTransport transport(mix, {.circuit_hops = 3}, Rng(2),
                         [&](graph::NodeId v) { return online[v] != 0; }, 4);
  Inbox inbox(sim);
  transport.set_receiver(inbox);

  EXPECT_TRUE(transport.send(0, 1, {4, 2}));
  sim.run_all();
  ASSERT_EQ(inbox.got.size(), 1u);
  EXPECT_EQ(inbox.got[0].message, (sim::Payload{4, 2}));
  EXPECT_EQ(transport.messages_delivered(), 1u);
  EXPECT_GT(transport.bytes_sent(), 3 * kOnionLayerOverhead);
  EXPECT_EQ(mix.messages_forwarded(), 3u);
}

TEST(MixTransport, GatesOnEndpointAvailability) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 4}, Rng(3));
  std::vector<char> online(2, 1);
  MixTransport transport(mix, {.circuit_hops = 2}, Rng(4),
                         [&](graph::NodeId v) { return online[v] != 0; }, 2);
  Inbox inbox(sim);
  transport.set_receiver(inbox);

  online[0] = 0;
  EXPECT_FALSE(transport.send(0, 1, {}));

  online[0] = 1;
  online[1] = 0;
  EXPECT_TRUE(transport.send(0, 1, {}));
  sim.run_all();
  EXPECT_TRUE(inbox.got.empty());
  EXPECT_EQ(transport.messages_dropped(), 1u);
}

TEST(MixTransport, RelayFailureLosesInFlightTraffic) {
  sim::ShardedSimulator sim({.num_actors = 2});
  MixNetwork mix(sim, {.num_relays = 2}, Rng(5));
  std::vector<char> online(2, 1);
  MixTransport transport(mix, {.circuit_hops = 2}, Rng(6),
                         [&](graph::NodeId v) { return online[v] != 0; }, 2);
  Inbox inbox(sim);
  transport.set_receiver(inbox);
  transport.send(0, 1, {});
  // Both relays go down after the send, before the entry hop lands.
  mix.schedule_crash(0, 0.001);
  mix.schedule_crash(1, 0.001);
  sim.run_all();
  EXPECT_TRUE(inbox.got.empty());
}

TEST(FullStack, OverlayProtocolRunsOverRealOnionCircuits) {
  // End-to-end: 24 nodes, every shuffle message onion-wrapped through
  // 2-hop circuits with real X25519 + AEAD crypto; the overlay still
  // forms (pseudonym links appear, graph densifies beyond trust).
  Rng grng(7);
  const graph::Graph trust = graph::barabasi_albert(24, 2, grng);
  const auto model = churn::ExponentialChurn::from_availability(1.0, 30.0);

  overlay::OverlayServiceOptions options;
  options.params.target_links = 8;
  options.params.cache_size = 40;
  options.params.shuffle_length = 6;
  options.use_mix_network = true;
  options.mix.num_relays = 8;
  options.mix_transport.circuit_hops = 2;

  sim::ShardedSimulator sim(
      overlay::simulator_options(options, trust.num_nodes()));
  overlay::ShardedOverlayService service(sim, trust, model, options, 8);
  service.start();
  sim.run_until(25.0);

  graph::Graph snapshot = service.overlay_snapshot();
  EXPECT_GT(snapshot.num_edges(), trust.num_edges() + 20);
  EXPECT_TRUE(graph::is_connected(snapshot));
  ASSERT_NE(service.mix_network(), nullptr);
  EXPECT_GT(service.mix_network()->messages_forwarded(), 100u);
  EXPECT_EQ(service.transport().messages_sent(),
            service.total_counters().messages_sent());
}

}  // namespace
}  // namespace ppo::privacylink
