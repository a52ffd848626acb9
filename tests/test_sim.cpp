// Event-engine semantics at K = 1: ordering, time advancement, the
// drain loop, periodic tasks.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/periodic.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::sim {
namespace {

/// One shard, four actors, half-period windows (binary fractions, so
/// window ends are exact).
ShardedSimulator::Options one_shard() {
  return {.num_actors = 4, .lookahead = 0.5};
}

TEST(Simulator, RunsEventsInTimeOrder) {
  ShardedSimulator sim(one_shard());
  std::vector<int> order;
  sim.schedule_at_for(0, 3.0, [&] { order.push_back(3); });
  sim.schedule_at_for(1, 1.0, [&] { order.push_back(1); });
  sim.schedule_at_for(2, 2.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, StableOrderAtEqualTimes) {
  ShardedSimulator sim(one_shard());
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at_for(static_cast<ActorId>(3 - i % 4), 5.0,
                        [&order, i] { order.push_back(i); });
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  ShardedSimulator sim(one_shard());
  double seen = -1.0;
  sim.schedule_at_for(0, 4.5, [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(seen, 4.5);
  // Between windows the clock reads the end of the last window run.
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  ShardedSimulator sim(one_shard());
  int fired = 0;
  sim.schedule_at_for(0, 1.0, [&] { ++fired; });
  sim.schedule_at_for(0, 2.0, [&] { ++fired; });
  sim.schedule_at_for(0, 3.0, [&] { ++fired; });
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
  int depth = 0;
  double last = -1.0;
  std::function<void()> recurse = [&] {
    last = sim.now();
    if (++depth < 5) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_at_for(0, 0.0, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(last, 4.0);
}

TEST(Simulator, PastSchedulingThrows) {
  ShardedSimulator sim(one_shard());
  sim.schedule_at_for(0, 2.0, [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at_for(0, 1.0, [] {}), ppo::CheckError);
  EXPECT_THROW(sim.schedule_for(0, -0.5, [] {}), ppo::CheckError);
}

TEST(Simulator, CountsExecutedEvents) {
  ShardedSimulator sim(one_shard());
  for (int i = 0; i < 7; ++i) sim.schedule_at_for(0, i, [] {});
  EXPECT_EQ(sim.run_all(), 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(PeriodicTask, FiresAtPhaseThenEveryPeriod) {
  ShardedSimulator sim(one_shard());
  std::vector<double> times;
  auto task = PeriodicTask::start(
      sim, 0.5, 2.0, [&] { times.push_back(sim.now()); }, 1);
  sim.run_until(7.0);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
  EXPECT_DOUBLE_EQ(times[3], 6.5);
  task.cancel();
}

TEST(PeriodicTask, CancelStopsFutureTicks) {
  ShardedSimulator sim(one_shard());
  int fired = 0;
  auto task = PeriodicTask::start(sim, 1.0, 1.0, [&] { ++fired; }, 0);
  sim.run_until(3.5);
  EXPECT_EQ(fired, 3);
  task.cancel();
  sim.run_until(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(task.active());
}

TEST(PeriodicTask, CancelFromInsideCallback) {
  ShardedSimulator sim(one_shard());
  int fired = 0;
  PeriodicTask task;
  task = PeriodicTask::start(
      sim, 1.0, 1.0,
      [&] {
        if (++fired == 2) task.cancel();
      },
      0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTask, RejectsNonPositivePeriod) {
  ShardedSimulator sim(one_shard());
  EXPECT_THROW(PeriodicTask::start(sim, 0.0, 0.0, [] {}, 0), ppo::CheckError);
}

}  // namespace
}  // namespace ppo::sim
