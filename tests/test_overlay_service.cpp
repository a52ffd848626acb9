// Full-system integration: the overlay service on small trust graphs
// under churn, at K = 1. Asserts the paper's core claims at reduced
// scale.
#include <gtest/gtest.h>

#include "churn/churn_model.hpp"
#include "graph/components.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/paths.hpp"
#include "overlay/sharded_service.hpp"

namespace ppo::overlay {
namespace {

OverlayParams test_params() {
  OverlayParams p;
  p.cache_size = 60;
  p.shuffle_length = 8;
  p.target_links = 12;
  p.pseudonym_lifetime = 90.0;
  return p;
}

/// Ring trust graph by default: sparse and high-diameter, good for
/// observing the overlay's improvement at full availability. Churn
/// tests pass a social-like (power-law) trust graph instead — gossip
/// diffusion on a pure ring is pathologically slow (diameter n/2),
/// far below the small-world graphs the paper evaluates on.
struct Fixture {
  graph::Graph trust;
  churn::ExponentialChurn model;
  sim::ShardedSimulator sim;
  ShardedOverlayService service;

  Fixture(std::size_t n, double alpha, OverlayParams params = test_params(),
          std::uint64_t seed = 7, bool social_graph = false)
      : trust(social_graph ? [&] {
          Rng grng(seed ^ 0x50C1A1);
          return graph::barabasi_albert(n, 2, grng);
        }()
                           : graph::ring(n)),
        model(churn::ExponentialChurn::from_availability(alpha, 30.0)),
        sim(simulator_options({}, n)),
        service(sim, trust, model, {.params = params}, seed) {}
};

TEST(OverlayService, BuildsOneNodePerVertex) {
  Fixture fx(20, 1.0);
  EXPECT_EQ(fx.service.num_nodes(), 20u);
  EXPECT_EQ(fx.service.node(3).trust_degree(), 2u);
}

TEST(OverlayService, SnapshotStartsAsTrustGraph) {
  Fixture fx(20, 1.0);
  fx.service.start();
  const graph::Graph snapshot = fx.service.overlay_snapshot();
  EXPECT_EQ(snapshot.num_edges(), 20u);  // ring edges only, no gossip yet
}

TEST(OverlayService, GossipAddsPseudonymLinks) {
  Fixture fx(30, 1.0);
  fx.service.start();
  fx.sim.run_until(50.0);
  const graph::Graph snapshot = fx.service.overlay_snapshot();
  EXPECT_GT(snapshot.num_edges(), 100u);  // far beyond the 30 ring edges
  // Degree cap: out-degree <= max(target, trust degree).
  for (graph::NodeId v = 0; v < 30; ++v)
    EXPECT_LE(fx.service.node(v).out_degree(), 12u);
}

TEST(OverlayService, OverlayShortensPaths) {
  Fixture fx(64, 1.0);
  fx.service.start();
  fx.sim.run_until(60.0);
  graph::Graph snapshot = fx.service.overlay_snapshot();
  Rng rng(1);
  const double overlay_apl = graph::average_path_length(snapshot, rng);
  Rng rng2(1);
  const double ring_apl = graph::average_path_length(fx.trust, rng2);
  EXPECT_LT(overlay_apl, ring_apl / 3.0);  // ring APL ~16, overlay ~2
}

TEST(OverlayService, OverlaySurvivesChurnThatPartitionsTrustGraph) {
  Fixture fx(80, 0.5, test_params(), /*seed=*/7, /*social_graph=*/true);
  fx.service.start();
  fx.sim.run_until(200.0);

  // A sparse power-law graph with half its nodes offline sheds a
  // large fraction of the online population...
  const double trust_disc =
      graph::fraction_disconnected(fx.trust, fx.service.online_mask());
  EXPECT_GT(trust_disc, 0.15);

  // ...the maintained overlay keeps (almost) everyone attached.
  graph::Graph snapshot = fx.service.overlay_snapshot();
  const double overlay_disc =
      graph::fraction_disconnected(snapshot, fx.service.online_mask());
  EXPECT_LT(overlay_disc, trust_disc / 2.0);
  EXPECT_LT(overlay_disc, 0.11);
}

TEST(OverlayService, StateSurvivesOfflinePeriods) {
  Fixture fx(40, 0.75);
  fx.service.start();
  fx.sim.run_until(200.0);
  // Every node that was ever online holds links; none exceeds its cap,
  // and cached pseudonyms are all live & resolvable.
  for (graph::NodeId v = 0; v < 40; ++v) {
    const auto& node = fx.service.node(v);
    for (const PseudonymValue value : node.pseudonym_links()) {
      EXPECT_TRUE(
          fx.service.pseudonym_service().alive(value, fx.sim.now()));
    }
  }
}

TEST(OverlayService, PermanentDepartureLinksDissolveAfterTtl) {
  OverlayParams p = test_params();
  p.pseudonym_lifetime = 40.0;
  Fixture fx(30, 1.0, p);
  fx.service.start();
  fx.sim.run_until(30.0);

  // Kill node 5 permanently; after <= lifetime, nobody links to it.
  fx.service.churn_driver().fail_permanently(5);
  fx.sim.run_until(30.0 + 41.0);

  graph::Graph snapshot = fx.service.overlay_snapshot();
  // Node 5's only remaining edges are its (static) trust edges.
  EXPECT_EQ(graph::masked_degree(snapshot, 5, {}), 2u);
}

TEST(OverlayService, MessageBudgetMatchesPaper) {
  // §V-A: network-wide average is ~2 messages per node per period
  // (one request + one response) at full availability.
  Fixture fx(50, 1.0);
  fx.service.start();
  fx.sim.run_until(100.0);
  const auto totals = fx.service.total_counters();
  const double per_tick =
      static_cast<double>(totals.messages_sent()) /
      static_cast<double>(totals.online_ticks);
  EXPECT_NEAR(per_tick, 2.0, 0.1);
}

TEST(OverlayService, ReplacementsStopWithoutExpiry) {
  OverlayParams p = test_params();
  p.pseudonym_lifetime = 1e12;  // r = infinity
  Fixture fx(40, 1.0, p);
  fx.service.start();
  fx.sim.run_until(300.0);
  const auto early = fx.service.total_replacements();
  fx.sim.run_until(400.0);
  const auto late = fx.service.total_replacements();
  // Late-phase replacement rate collapses once samples converge
  // (paper Fig. 9, r = infinite).
  const auto delta = late.replacements() - early.replacements();
  EXPECT_LT(delta, early.replacements() / 10 + 40);
  EXPECT_EQ(late.refills_after_expiry, 0u);
}

TEST(OverlayService, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    Fixture fx(30, 0.5, test_params(), seed);
    fx.service.start();
    fx.sim.run_until(80.0);
    graph::Graph snapshot = fx.service.overlay_snapshot();
    return snapshot.edges();
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(OverlayService, NaiveSamplingAblationRuns) {
  OverlayParams p = test_params();
  p.naive_sampling = true;
  Fixture fx(40, 1.0, p);
  fx.service.start();
  fx.sim.run_until(60.0);
  graph::Graph snapshot = fx.service.overlay_snapshot();
  EXPECT_GT(snapshot.num_edges(), 40u);
}

TEST(OverlayService, RejectsTinyGraphs) {
  sim::ShardedSimulator sim(simulator_options({}, 1));
  graph::Graph g(1);
  const auto model = churn::ExponentialChurn::from_availability(1.0, 30.0);
  EXPECT_THROW(ShardedOverlayService(sim, g, model, {}, 1), CheckError);
}

class AvailabilitySweep : public ::testing::TestWithParam<double> {};

TEST_P(AvailabilitySweep, InvariantsHoldUnderChurn) {
  const double alpha = GetParam();
  Fixture fx(50, alpha);
  fx.service.start();
  fx.sim.run_until(120.0);

  graph::Graph snapshot = fx.service.overlay_snapshot();
  EXPECT_FALSE(snapshot.has_edge(0, 0));
  for (graph::NodeId v = 0; v < 50; ++v) {
    const auto& node = fx.service.node(v);
    // Out-degree never exceeds trust degree + slot capacity.
    EXPECT_LE(node.out_degree(),
              node.trust_degree() + node.slot_capacity());
    // Pseudonym links only point at live pseudonyms of other nodes.
    for (const PseudonymValue value : node.pseudonym_links())
      EXPECT_TRUE(fx.service.pseudonym_service().alive(value, fx.sim.now()));
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, AvailabilitySweep,
                         ::testing::Values(0.125, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace ppo::overlay
