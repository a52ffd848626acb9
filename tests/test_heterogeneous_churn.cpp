// Heterogeneous per-node churn (Yao et al.'s general setting; the
// paper homogenizes availability, §IV-B — we also support mixing).
#include <gtest/gtest.h>

#include "churn/churn_driver.hpp"
#include "churn/churn_model.hpp"
#include "graph/generators.hpp"
#include "overlay/sharded_service.hpp"

namespace ppo::churn {
namespace {

TEST(HeterogeneousChurn, PerNodeAvailabilityRespected) {
  sim::ShardedSimulator sim({.num_actors = 600, .lookahead = 1.0});
  const auto stable = ExponentialChurn::from_availability(0.9, 10.0);
  const auto mobile = ExponentialChurn::from_availability(0.1, 10.0);
  // First 300 stable, remaining 300 mobile.
  std::vector<const ChurnModel*> models(300, &stable);
  models.insert(models.end(), 300, &mobile);
  ChurnDriver driver(sim, std::move(models), Rng(1));
  driver.start({});
  sim.run_until(200.0);

  std::size_t stable_online = 0, mobile_online = 0;
  for (NodeId v = 0; v < 300; ++v) stable_online += driver.is_online(v);
  for (NodeId v = 300; v < 600; ++v) mobile_online += driver.is_online(v);
  EXPECT_NEAR(static_cast<double>(stable_online) / 300.0, 0.9, 0.07);
  EXPECT_NEAR(static_cast<double>(mobile_online) / 300.0, 0.1, 0.07);
}

TEST(HeterogeneousChurn, NullModelRejected) {
  sim::ShardedSimulator sim({.num_actors = 3});
  std::vector<const ChurnModel*> models(3, nullptr);
  EXPECT_THROW(ChurnDriver(sim, std::move(models), Rng(1)), CheckError);
}

TEST(HeterogeneousChurn, OverlayServiceSupportsMixedPopulations) {
  Rng grng(3);
  const graph::Graph trust = graph::barabasi_albert(60, 2, grng);
  const auto stable = ExponentialChurn::from_availability(0.9, 30.0);
  const auto mobile = ExponentialChurn::from_availability(0.2, 30.0);
  std::vector<const ChurnModel*> models;
  for (NodeId v = 0; v < 60; ++v)
    models.push_back(v % 2 == 0 ? &stable : &mobile);

  const overlay::OverlayServiceOptions options{
      .params = {.cache_size = 60, .shuffle_length = 8, .target_links = 12}};
  sim::ShardedSimulator sim(overlay::simulator_options(options, 60));
  overlay::ShardedOverlayService service(sim, trust, std::move(models),
                                         options, 4);
  service.start();
  sim.run_until(150.0);
  // The service runs and the stable half dominates the online set.
  std::size_t stable_online = 0, mobile_online = 0;
  for (NodeId v = 0; v < 60; ++v) {
    (v % 2 == 0 ? stable_online : mobile_online) +=
        service.is_online(v);
  }
  EXPECT_GT(stable_online, 2 * mobile_online);
  EXPECT_GT(service.overlay_snapshot().num_edges(), trust.num_edges());
}

TEST(HeterogeneousChurn, SizeMismatchRejected) {
  Rng grng(5);
  const graph::Graph trust = graph::barabasi_albert(10, 2, grng);
  sim::ShardedSimulator sim(overlay::simulator_options({}, 10));
  const auto model = ExponentialChurn::from_availability(0.5, 30.0);
  std::vector<const ChurnModel*> models(7, &model);  // != 10
  EXPECT_THROW(overlay::ShardedOverlayService(sim, trust, std::move(models),
                                              {}, 6),
               CheckError);
}

}  // namespace
}  // namespace ppo::churn
