// Ideal anonymity-service transport: latency, online gating, counters.
#include <gtest/gtest.h>

#include "privacylink/transport.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::privacylink {
namespace {

struct Fixture {
  sim::ShardedSimulator sim;
  std::vector<char> online;
  Transport transport;

  explicit Fixture(std::size_t n, TransportOptions opts = {})
      : sim({.num_actors = n}),
        online(n, 1),
        transport(sim, opts, Rng(7),
                  [this](NodeId v) { return online[v] != 0; }, n) {}
};

TEST(Transport, DeliversWithinLatencyWindow) {
  Fixture fx(2, {.min_latency = 0.01, .max_latency = 0.05});
  double delivered_at = -1.0;
  fx.transport.send(0, 1, [&] { delivered_at = fx.sim.now(); });
  fx.sim.run_all();
  EXPECT_GE(delivered_at, 0.01);
  EXPECT_LE(delivered_at, 0.05);
  EXPECT_EQ(fx.transport.messages_sent(), 1u);
  EXPECT_EQ(fx.transport.messages_delivered(), 1u);
}

TEST(Transport, OfflineSenderCannotSend) {
  Fixture fx(2);
  fx.online[0] = 0;
  bool delivered = false;
  EXPECT_FALSE(fx.transport.send(0, 1, [&] { delivered = true; }));
  fx.sim.run_all();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(fx.transport.messages_sent(), 0u);
}

TEST(Transport, OfflineDestinationDropsMessage) {
  Fixture fx(2);
  fx.online[1] = 0;
  bool delivered = false;
  EXPECT_TRUE(fx.transport.send(0, 1, [&] { delivered = true; }));
  fx.sim.run_all();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(fx.transport.messages_sent(), 1u);
  EXPECT_EQ(fx.transport.messages_dropped(), 1u);
}

TEST(Transport, DestinationCheckedAtArrivalTime) {
  // Destination goes offline while the message is in flight.
  Fixture fx(2, {.min_latency = 1.0, .max_latency = 1.0});
  bool delivered = false;
  fx.transport.send(0, 1, [&] { delivered = true; });
  fx.sim.schedule_at_for(1, 0.5, [&] { fx.online[1] = 0; });
  fx.sim.run_all();
  EXPECT_FALSE(delivered);

  // And the reverse: it comes online just in time.
  fx.online[1] = 0;
  fx.transport.send(0, 1, [&] { delivered = true; });
  fx.sim.schedule_for(1, 0.5, [&] { fx.online[1] = 1; });
  fx.sim.run_all();
  EXPECT_TRUE(delivered);
}

TEST(Transport, ZeroLatencyAllowed) {
  Fixture fx(2, {.min_latency = 0.0, .max_latency = 0.0});
  bool delivered = false;
  fx.transport.send(0, 1, [&] { delivered = true; });
  fx.sim.run_all();
  EXPECT_TRUE(delivered);
}

TEST(Transport, InvalidLatencyWindowThrows) {
  sim::ShardedSimulator sim({.num_actors = 2});
  EXPECT_THROW(Transport(sim, {.min_latency = 0.5, .max_latency = 0.1},
                         Rng(1), [](NodeId) { return true; }, 2),
               CheckError);
}

}  // namespace
}  // namespace ppo::privacylink
