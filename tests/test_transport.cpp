// Ideal anonymity-service transport: latency, online gating, counters.
#include <gtest/gtest.h>

#include "link_inbox.hpp"
#include "privacylink/transport.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim_closures.hpp"

namespace ppo::privacylink {
namespace {

struct Fixture {
  sim::ShardedSimulator sim;
  sim::Closures ev{sim};
  std::vector<char> online;
  Inbox inbox{sim};
  Transport transport;

  explicit Fixture(std::size_t n, TransportOptions opts = {})
      : sim({.num_actors = n}),
        online(n, 1),
        transport(sim, opts, Rng(7),
                  [this](NodeId v) { return online[v] != 0; }, n) {
    transport.set_receiver(inbox);
  }

  bool delivered() const { return !inbox.got.empty(); }
};

TEST(Transport, DeliversWithinLatencyWindow) {
  Fixture fx(2, {.min_latency = 0.01, .max_latency = 0.05});
  fx.transport.send(0, 1, {7, 8});
  fx.sim.run_all();
  ASSERT_EQ(fx.inbox.got.size(), 1u);
  const Inbox::Delivery& d = fx.inbox.got[0];
  EXPECT_EQ(d.from, 0u);
  EXPECT_EQ(d.to, 1u);
  EXPECT_EQ(d.message, (sim::Payload{7, 8}));
  EXPECT_GE(d.time, 0.01);
  EXPECT_LE(d.time, 0.05);
  EXPECT_EQ(fx.transport.messages_sent(), 1u);
  EXPECT_EQ(fx.transport.messages_delivered(), 1u);
}

TEST(Transport, OfflineSenderCannotSend) {
  Fixture fx(2);
  fx.online[0] = 0;
  EXPECT_FALSE(fx.transport.send(0, 1, {}));
  fx.sim.run_all();
  EXPECT_FALSE(fx.delivered());
  EXPECT_EQ(fx.transport.messages_sent(), 0u);
}

TEST(Transport, OfflineDestinationDropsMessage) {
  Fixture fx(2);
  fx.online[1] = 0;
  EXPECT_TRUE(fx.transport.send(0, 1, {}));
  fx.sim.run_all();
  EXPECT_FALSE(fx.delivered());
  EXPECT_EQ(fx.transport.messages_sent(), 1u);
  EXPECT_EQ(fx.transport.messages_dropped(), 1u);
}

TEST(Transport, DestinationCheckedAtArrivalTime) {
  // Destination goes offline while the message is in flight.
  Fixture fx(2, {.min_latency = 1.0, .max_latency = 1.0});
  fx.transport.send(0, 1, {});
  fx.ev.at(1, 0.5, [&] { fx.online[1] = 0; });
  fx.sim.run_all();
  EXPECT_FALSE(fx.delivered());

  // And the reverse: it comes online just in time.
  fx.online[1] = 0;
  fx.transport.send(0, 1, {});
  fx.ev.after_for(1, 0.5, [&] { fx.online[1] = 1; });
  fx.sim.run_all();
  EXPECT_TRUE(fx.delivered());
}

TEST(Transport, ZeroLatencyAllowed) {
  Fixture fx(2, {.min_latency = 0.0, .max_latency = 0.0});
  fx.transport.send(0, 1, {});
  fx.sim.run_all();
  EXPECT_TRUE(fx.delivered());
}

TEST(Transport, InvalidLatencyWindowThrows) {
  sim::ShardedSimulator sim({.num_actors = 2});
  EXPECT_THROW(Transport(sim, {.min_latency = 0.5, .max_latency = 0.1},
                         Rng(1), [](NodeId) { return true; }, 2),
               CheckError);
}

}  // namespace
}  // namespace ppo::privacylink
