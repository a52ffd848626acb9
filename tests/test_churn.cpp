// Churn models (Yao et al.) and the simulator churn driver.
#include <gtest/gtest.h>

#include "churn/churn_driver.hpp"
#include "churn/churn_model.hpp"
#include "common/stats.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim_closures.hpp"

namespace ppo::churn {
namespace {

TEST(ExponentialChurn, AvailabilityFormula) {
  const ExponentialChurn model(10.0, 30.0);
  EXPECT_DOUBLE_EQ(model.availability(), 0.25);
}

TEST(ExponentialChurn, FromAvailabilityInverts) {
  for (double alpha : {0.125, 0.25, 0.5, 0.75}) {
    const auto model = ExponentialChurn::from_availability(alpha, 30.0);
    EXPECT_NEAR(model.availability(), alpha, 1e-12);
    EXPECT_DOUBLE_EQ(model.mean_offline_time(), 30.0);
  }
}

TEST(ExponentialChurn, FullAvailabilityHasNoOfflineTime) {
  const auto model = ExponentialChurn::from_availability(1.0, 30.0);
  EXPECT_DOUBLE_EQ(model.availability(), 1.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(model.next_offline_duration(rng), 0.0);
}

TEST(ExponentialChurn, DurationsMatchMeans) {
  const ExponentialChurn model(10.0, 30.0);
  Rng rng(2);
  RunningStats on, off;
  for (int i = 0; i < 30000; ++i) {
    on.add(model.next_online_duration(rng));
    off.add(model.next_offline_duration(rng));
  }
  EXPECT_NEAR(on.mean(), 10.0, 0.3);
  EXPECT_NEAR(off.mean(), 30.0, 0.9);
}

TEST(ParetoChurn, MeansMatch) {
  const ParetoChurn model(3.0, 10.0, 30.0);
  Rng rng(3);
  RunningStats on, off;
  for (int i = 0; i < 60000; ++i) {
    on.add(model.next_online_duration(rng));
    off.add(model.next_offline_duration(rng));
  }
  EXPECT_NEAR(on.mean(), 10.0, 0.4);
  EXPECT_NEAR(off.mean(), 30.0, 1.2);
  EXPECT_NEAR(model.availability(), 0.25, 1e-12);
}

TEST(ParetoChurn, RejectsShapeBelowOne) {
  EXPECT_THROW(ParetoChurn(0.9, 10.0, 30.0), CheckError);
}

TEST(TraceChurn, ReplaysCyclically) {
  const TraceChurn model({1.0, 2.0}, {5.0});
  Rng rng(4);
  EXPECT_DOUBLE_EQ(model.next_online_duration(rng), 1.0);
  EXPECT_DOUBLE_EQ(model.next_online_duration(rng), 2.0);
  EXPECT_DOUBLE_EQ(model.next_online_duration(rng), 1.0);
  EXPECT_DOUBLE_EQ(model.next_offline_duration(rng), 5.0);
  EXPECT_DOUBLE_EQ(model.mean_online_time(), 1.5);
  EXPECT_DOUBLE_EQ(model.mean_offline_time(), 5.0);
}

/// One shard over `nodes` actors. Churn events never cross actors, so
/// the window length is free.
sim::ShardedSimulator::Options one_shard(std::size_t nodes) {
  return {.num_actors = nodes, .lookahead = 1.0};
}

TEST(ChurnDriver, StationaryFractionNearAlpha) {
  sim::ShardedSimulator sim(one_shard(4000));
  const auto model = ExponentialChurn::from_availability(0.25, 30.0);
  ChurnDriver driver(sim, 4000, model, Rng(5));
  driver.start({});
  const double initial =
      static_cast<double>(driver.online_count()) / 4000.0;
  EXPECT_NEAR(initial, 0.25, 0.03);

  // Run well past mixing time; the stationary fraction must persist.
  sim.run_until(300.0);
  const double later = static_cast<double>(driver.online_count()) / 4000.0;
  EXPECT_NEAR(later, 0.25, 0.03);
}

TEST(ChurnDriver, CallbacksTrackMask) {
  sim::ShardedSimulator sim(one_shard(200));
  const auto model = ExponentialChurn::from_availability(0.5, 5.0);
  ChurnDriver driver(sim, 200, model, Rng(6));
  std::size_t transitions = 0;
  driver.start(ChurnCallbacks{
      .on_online =
          [&](NodeId v) {
            EXPECT_TRUE(driver.is_online(v));
            ++transitions;
          },
      .on_offline =
          [&](NodeId v) {
            EXPECT_FALSE(driver.is_online(v));
            ++transitions;
          },
  });
  sim.run_until(100.0);
  EXPECT_GT(transitions, 500u);  // plenty of churn at these scales
}

TEST(ChurnDriver, StartTwiceThrows) {
  sim::ShardedSimulator sim(one_shard(10));
  const auto model = ExponentialChurn::from_availability(0.5, 5.0);
  ChurnDriver driver(sim, 10, model, Rng(7));
  driver.start({});
  EXPECT_THROW(driver.start({}), CheckError);
}

TEST(ChurnDriver, PermanentFailureSticks) {
  sim::ShardedSimulator sim(one_shard(50));
  const auto model = ExponentialChurn::from_availability(0.9, 2.0);
  ChurnDriver driver(sim, 50, model, Rng(8));
  driver.start({});
  sim.run_until(1.0);
  for (NodeId v = 0; v < 50; v += 2) driver.fail_permanently(v);
  sim.run_until(200.0);
  for (NodeId v = 0; v < 50; v += 2) EXPECT_FALSE(driver.is_online(v));
  // Unfailed nodes are mostly online at alpha = 0.9.
  std::size_t online_odd = 0;
  for (NodeId v = 1; v < 50; v += 2) online_odd += driver.is_online(v);
  EXPECT_GT(online_odd, 15u);
}

TEST(ChurnDriver, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    sim::ShardedSimulator sim(one_shard(100));
    const auto model = ExponentialChurn::from_availability(0.5, 10.0);
    ChurnDriver driver(sim, 100, model, Rng(seed));
    driver.start({});
    sim.run_until(50.0);
    std::vector<bool> mask;
    for (NodeId v = 0; v < 100; ++v) mask.push_back(driver.is_online(v));
    return mask;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

// Each node draws from its own stream and each transition is an event
// of its own node, so the online masks cannot depend on how nodes are
// spread over shards. This is what makes the static baselines the same
// at every K.
TEST(ChurnDriver, OnlineMasksAreShardCountInvariant) {
  constexpr std::size_t kNodes = 500;
  const auto model = ExponentialChurn::from_availability(0.5, 10.0);
  const auto masks_at = [&model](std::size_t shards) {
    sim::ShardedSimulator sim(
        {.shards = shards, .num_actors = kNodes, .lookahead = 1.0});
    sim::Closures ev(sim);
    ChurnDriver driver(sim, kNodes, model, Rng(11));
    driver.start({});
    // A few crashes and revivals, each scheduled for its own node.
    for (NodeId v = 0; v < kNodes; v += 37) {
      ev.at(v, 10.0 + v % 7, [&driver, v] { driver.fail_permanently(v); });
      ev.at(v, 40.0 + v % 11, [&driver, v] { driver.revive(v); });
    }
    std::vector<std::vector<bool>> masks;
    for (double t = 5.0; t <= 100.0; t += 5.0) {
      sim.run_until(t);
      std::vector<bool> mask;
      for (NodeId v = 0; v < kNodes; ++v) mask.push_back(driver.is_online(v));
      masks.push_back(std::move(mask));
    }
    return masks;
  };
  const auto reference = masks_at(1);
  ASSERT_EQ(reference.size(), 20u);
  EXPECT_EQ(masks_at(2), reference);
  EXPECT_EQ(masks_at(4), reference);
}

}  // namespace
}  // namespace ppo::churn
