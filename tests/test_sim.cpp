// Event-engine semantics at K = 1: ordering, time advancement, the
// drain loop, events that schedule their successors.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "churn/churn_model.hpp"
#include "graph/graph.hpp"
#include "overlay/sharded_service.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim_closures.hpp"

namespace ppo::sim {
namespace {

/// One shard, four actors, half-period windows (binary fractions, so
/// window ends are exact).
ShardedSimulator::Options one_shard() {
  return {.num_actors = 4, .lookahead = 0.5};
}

TEST(Simulator, RunsEventsInTimeOrder) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  std::vector<int> order;
  ev.at(0, 3.0, [&] { order.push_back(3); });
  ev.at(1, 1.0, [&] { order.push_back(1); });
  ev.at(2, 2.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, StableOrderAtEqualTimes) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    ev.at(static_cast<ActorId>(3 - i % 4), 5.0,
          [&order, i] { order.push_back(i); });
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  double seen = -1.0;
  ev.at(0, 4.5, [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(seen, 4.5);
  // Between windows the clock reads the end of the last window run.
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  int fired = 0;
  ev.at(0, 1.0, [&] { ++fired; });
  ev.at(0, 2.0, [&] { ++fired; });
  ev.at(0, 3.0, [&] { ++fired; });
  // Exclusive of its end: the event at exactly 2.0 stays pending.
  EXPECT_EQ(sim.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run_until(2.25), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  int depth = 0;
  double last = -1.0;
  std::function<void()> recurse = [&] {
    last = sim.now();
    if (++depth < 5) ev.after(1.0, recurse);
  };
  ev.at(0, 0.0, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(last, 4.0);
}

TEST(Simulator, PastSchedulingThrows) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  ev.at(0, 2.0, [] {});
  sim.run_all();
  EXPECT_THROW(ev.at(0, 1.0, [] {}), ppo::CheckError);
  EXPECT_THROW(ev.after_for(0, -0.5, [] {}), ppo::CheckError);
}

TEST(Simulator, CountsExecutedEvents) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  for (int i = 0; i < 7; ++i) ev.at(0, i, [] {});
  EXPECT_EQ(sim.run_all(), 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

/// A tick is an event that schedules its successor. An always-online
/// node counts one tick at its phase and one per period after.
TEST(PeriodicTask, FiresAtPhaseThenEveryPeriod) {
  graph::Graph trust(2);
  trust.add_edge(0, 1);
  trust.finalize();
  const churn::ExponentialChurn always_on(1e9, 1e-9);
  overlay::OverlayServiceOptions options;
  options.params.shuffle_period = 2.0;
  ShardedSimulator sim(overlay::simulator_options(options, 2));
  overlay::ShardedOverlayService service(sim, trust, always_on, options, 3);
  service.start();
  // The phase is the node's own draw in [0, period).
  sim.run_until(2.0);
  EXPECT_EQ(service.node(1).counters().online_ticks, 1u);
  sim.run_until(8.0);
  EXPECT_EQ(service.node(1).counters().online_ticks, 4u);
}

TEST(PeriodicTask, RejectsNonPositivePeriod) {
  graph::Graph trust(2);
  trust.add_edge(0, 1);
  trust.finalize();
  const churn::ExponentialChurn always_on(1e9, 1e-9);
  overlay::OverlayServiceOptions options;
  options.params.shuffle_period = 0.0;
  ShardedSimulator sim(overlay::simulator_options(options, 2));
  overlay::ShardedOverlayService service(sim, trust, always_on, options, 3);
  EXPECT_THROW(service.start(), ppo::CheckError);
}

}  // namespace
}  // namespace ppo::sim
