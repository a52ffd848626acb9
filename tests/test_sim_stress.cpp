// Simulator stress at K = 1: ordering against a sorted reference under
// large random schedules, and heavy self-rescheduling workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim_closures.hpp"

namespace ppo::sim {
namespace {

ShardedSimulator::Options one_shard() {
  return {.num_actors = 100, .lookahead = 0.5};
}

TEST(SimulatorStress, TenThousandRandomEventsRunInOrder) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  Rng rng(1);
  std::vector<double> scheduled;
  std::vector<double> observed;
  for (int i = 0; i < 10'000; ++i) {
    const double t = rng.uniform_double(0.0, 1000.0);
    scheduled.push_back(t);
    ev.at(static_cast<ActorId>(i % 100), t,
          [&observed, &sim] { observed.push_back(sim.now()); });
  }
  sim.run_all();
  ASSERT_EQ(observed.size(), scheduled.size());
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
  std::sort(scheduled.begin(), scheduled.end());
  EXPECT_EQ(observed, scheduled);
}

TEST(SimulatorStress, CascadingReschedulesStayStable) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  Rng rng(2);
  std::uint64_t fired = 0;
  // 100 self-perpetuating chains with random inter-arrival times.
  std::function<void()> chain = [&] {
    ++fired;
    if (sim.now() < 500.0)
      ev.after(rng.uniform_double(0.1, 2.0), chain);
  };
  for (int i = 0; i < 100; ++i)
    ev.at(static_cast<ActorId>(i), 0.0, chain);
  sim.run_all();
  // ~100 chains x ~500 periods / ~1.05 mean step.
  EXPECT_GT(fired, 30'000u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorStress, InterleavedRunUntilWindows) {
  ShardedSimulator sim(one_shard());
  Closures ev(sim);
  Rng rng(3);
  std::vector<double> times;
  for (int i = 0; i < 5'000; ++i) {
    const double t = rng.uniform_double(0.0, 100.0);
    ev.at(static_cast<ActorId>(i % 100), t,
          [&times, &sim] { times.push_back(sim.now()); });
  }
  std::size_t total = 0;
  for (double window = 10.0; window <= 100.0; window += 10.0)
    total += sim.run_until(window);
  EXPECT_EQ(total, 5'000u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

}  // namespace
}  // namespace ppo::sim
