// Parameterized protocol-invariant sweeps across the paper's tunables
// (cache size C, shuffle length l, target links): the §III guarantees
// must hold at every setting.
#include <gtest/gtest.h>

#include <tuple>

#include "churn/churn_model.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "overlay/sharded_service.hpp"

namespace ppo::overlay {
namespace {

using ParamTuple = std::tuple<std::size_t, std::size_t, std::size_t>;

class ProtocolParamSweep : public ::testing::TestWithParam<ParamTuple> {};

TEST_P(ProtocolParamSweep, InvariantsAcrossTunables) {
  const auto [cache_size, shuffle_length, target_links] = GetParam();
  Rng grng(7);
  const graph::Graph trust = graph::barabasi_albert(50, 2, grng);
  const auto model = churn::ExponentialChurn::from_availability(0.7, 30.0);

  OverlayParams params;
  params.cache_size = cache_size;
  params.shuffle_length = shuffle_length;
  params.target_links = target_links;
  sim::ShardedSimulator sim(simulator_options({}, trust.num_nodes()));
  ShardedOverlayService service(sim, trust, model, {.params = params}, 9);
  service.start();
  sim.run_until(80.0);

  graph::Graph snapshot = service.overlay_snapshot();
  EXPECT_GE(snapshot.num_edges(), trust.num_edges());
  for (graph::NodeId v = 0; v < 50; ++v) {
    const auto& node = service.node(v);
    // Cache bounded by C.
    EXPECT_LE(node.cache().size(), cache_size);
    // Out-degree bounded by trust + slots.
    EXPECT_LE(node.out_degree(), node.trust_degree() + node.slot_capacity());
    // Slot budget follows the §III-D formula.
    EXPECT_EQ(node.slot_capacity(),
              target_links > node.trust_degree()
                  ? target_links - node.trust_degree()
                  : 0u);
    // Pseudonym links point at live registrations only.
    for (const auto value : node.pseudonym_links())
      EXPECT_TRUE(service.pseudonym_service().alive(value, sim.now()));
  }
  // The protocol actually exchanged data at every setting.
  EXPECT_GT(service.total_counters().shuffles_completed, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Tunables, ProtocolParamSweep,
    ::testing::Values(ParamTuple{10, 2, 4},     // tiny everything
                      ParamTuple{40, 5, 8},     // small
                      ParamTuple{400, 40, 50},  // Table I defaults
                      ParamTuple{30, 20, 12},   // l close to cache size
                      ParamTuple{60, 8, 100},   // target above population
                      ParamTuple{5, 6, 10}));   // l above cache size

class PseudonymWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PseudonymWidthSweep, NarrowValueSpacesStillWork) {
  // Small p makes values dense (ties possible, collisions frequent);
  // the §III-D tie-break and minting retry must keep things sound.
  const unsigned bits = GetParam();
  Rng grng(11);
  const graph::Graph trust = graph::barabasi_albert(30, 2, grng);
  const auto model = churn::ExponentialChurn::from_availability(1.0, 30.0);
  OverlayParams params;
  params.cache_size = 40;
  params.shuffle_length = 6;
  params.target_links = 8;
  params.pseudonym_bits = bits;
  sim::ShardedSimulator sim(simulator_options({}, trust.num_nodes()));
  ShardedOverlayService service(sim, trust, model, {.params = params}, 13);
  service.start();
  sim.run_until(40.0);

  graph::Graph snapshot = service.overlay_snapshot();
  EXPECT_GT(snapshot.num_edges(), trust.num_edges());
  EXPECT_TRUE(graph::is_connected(snapshot));
}

INSTANTIATE_TEST_SUITE_P(Widths, PseudonymWidthSweep,
                         ::testing::Values(16u, 24u, 32u, 64u));

}  // namespace
}  // namespace ppo::overlay
