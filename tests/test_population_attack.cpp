// §III-E empirics at test scale: the population estimator (E-4) and
// the colluding-observer timing attack setup (E-2, via the cache
// injection instrumentation).
#include <gtest/gtest.h>

#include "churn/churn_model.hpp"
#include "graph/generators.hpp"
#include "overlay/sharded_service.hpp"

namespace ppo::overlay {
namespace {

TEST(PopulationEstimate, ConvergesToGroupSizeInSmallSystem) {
  Rng grng(1);
  const graph::Graph trust = graph::barabasi_albert(60, 2, grng);
  const auto model = churn::ExponentialChurn::from_availability(1.0, 30.0);
  OverlayServiceOptions options;
  options.params.population_estimation = true;
  options.params.target_links = 15;
  options.params.cache_size = 80;
  options.params.shuffle_length = 10;
  sim::ShardedSimulator sim(simulator_options(options, trust.num_nodes()));
  ShardedOverlayService service(sim, trust, model, options, 2);
  service.start();
  sim.run_until(120.0);

  // "If the number of nodes in the system is small, then all nodes
  // will eventually see all pseudonyms before they expire."
  std::size_t accurate = 0;
  for (graph::NodeId v = 0; v < 60; ++v) {
    const std::size_t est = service.node(v).estimated_population();
    EXPECT_LE(est, 62u);  // at most one stale duplicate in flight
    accurate += (est >= 55);
  }
  EXPECT_GT(accurate, 50u);
}

TEST(PopulationEstimate, DisabledByDefault) {
  Rng grng(3);
  const graph::Graph trust = graph::barabasi_albert(30, 2, grng);
  const auto model = churn::ExponentialChurn::from_availability(1.0, 30.0);
  sim::ShardedSimulator sim(simulator_options({}, trust.num_nodes()));
  ShardedOverlayService service(sim, trust, model, {}, 4);
  service.start();
  sim.run_until(50.0);
  // Only the node's own pseudonym is counted.
  EXPECT_LE(service.node(0).estimated_population(), 1u);
}

TEST(TimingAttack, MarkerRelayObservableButUnreliable) {
  // The §III-E-2 relay n -> a -> b -> o: plant a marker at a, check
  // whether a's neighbor b and then b's neighbor o see it shortly
  // after. Over a converged overlay this happens sometimes but far
  // from always — the paper's "unlikely to occur" argument.
  Rng grng(5);
  const graph::Graph trust = graph::barabasi_albert(80, 3, grng);
  const auto model = churn::ExponentialChurn::from_availability(1.0, 30.0);
  sim::ShardedSimulator sim(simulator_options({}, trust.num_nodes()));
  ShardedOverlayService service(sim, trust, model, {}, 6);
  service.start();
  sim.run_until(60.0);

  Rng rng(7);
  int b_reached = 0, detected = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const auto a = static_cast<graph::NodeId>(rng.uniform_u64(80));
    const auto a_nbrs = trust.neighbors(a);
    const auto b = a_nbrs[rng.uniform_u64(a_nbrs.size())];
    const auto marker = service.mint_pseudonym(a, 20.0);
    service.node(a).inject_cache_record(marker);
    sim.run_until(sim.now() + 2.0);
    if (!service.node(b).cache().contains(marker.value)) continue;
    ++b_reached;
    sim.run_until(sim.now() + 2.0);
    for (const auto o : trust.neighbors(b)) {
      if (o == a) continue;
      if (service.node(o).cache().contains(marker.value)) {
        ++detected;
        break;
      }
    }
  }
  // The relay chain must be possible but not the common case.
  EXPECT_LT(detected, trials * 3 / 4);
  EXPECT_LE(detected, b_reached);
}

}  // namespace
}  // namespace ppo::overlay
