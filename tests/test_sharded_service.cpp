// ShardedOverlayService: K-invariance of full protocol runs (plain
// churn, link faults, correlated node crashes), the mix-mode shard
// restriction, and scenario-level equality between shard counts at
// figure scale.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/check.hpp"
#include "experiments/scenario.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_stream.hpp"
#include "graph/generators.hpp"
#include "overlay/sharded_service.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::overlay {
namespace {

graph::Graph test_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return graph::holme_kim(n, 3, 0.3, rng);
}

OverlayServiceOptions small_options() {
  OverlayServiceOptions options;
  options.params.cache_size = 60;
  options.params.shuffle_length = 8;
  options.params.target_links = 10;
  options.params.pseudonym_lifetime = 30.0;
  return options;
}

/// Everything we compare across shard counts: the full overlay edge
/// set, online mask, health counters and the event count. Equality
/// here means equal trajectories for all practical purposes.
struct RunOutcome {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  std::vector<char> online;
  metrics::ProtocolHealth health;
  std::uint64_t events = 0;
  std::uint64_t replacements = 0;
};

bool operator==(const RunOutcome& a, const RunOutcome& b) {
  return a.edges == b.edges && a.online == b.online && a.events == b.events &&
         a.replacements == b.replacements &&
         a.health.requests_sent == b.health.requests_sent &&
         a.health.responses_sent == b.health.responses_sent &&
         a.health.exchanges_completed == b.health.exchanges_completed &&
         a.health.request_timeouts == b.health.request_timeouts &&
         a.health.exchanges_aborted == b.health.exchanges_aborted &&
         a.health.messages_sent == b.health.messages_sent &&
         a.health.messages_dropped == b.health.messages_dropped &&
         a.health.messages_delivered == b.health.messages_delivered;
}

RunOutcome run_sharded(std::size_t shards, const graph::Graph& trust,
                       OverlayServiceOptions options, std::uint64_t seed,
                       double horizon,
                       std::vector<fault::NodeCrashEvent> crashes = {}) {
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(0.6, 10.0);
  sim::ShardedSimulator sim(
      simulator_options(options, trust.num_nodes(), shards));
  ShardedOverlayService service(sim, trust, model, options, seed);

  std::unique_ptr<fault::FaultInjector> injector;
  if (!crashes.empty()) {
    fault::FaultInjector::Hooks hooks;
    hooks.fail_node = [&service](graph::NodeId v) {
      service.churn_driver().fail_permanently(v);
    };
    hooks.revive_node = [&service](graph::NodeId v) {
      service.churn_driver().revive(v);
    };
    injector = std::make_unique<fault::FaultInjector>(
        sim, std::move(hooks), std::move(crashes));
    injector->arm();
  }

  service.start();
  sim.run_until(horizon);

  RunOutcome out;
  out.edges = service.overlay_snapshot().edges();
  const auto& mask = service.online_mask();
  out.online.resize(trust.num_nodes());
  for (graph::NodeId v = 0; v < trust.num_nodes(); ++v)
    out.online[v] = mask.contains(v) ? 1 : 0;
  out.health = service.protocol_health();
  out.events = sim.events_executed();
  out.replacements = service.total_replacements().replacements();
  return out;
}

TEST(ShardedService, ChurnOnlyTrajectoriesAreShardCountInvariant) {
  const graph::Graph trust = test_graph(120, 7);
  const auto base = run_sharded(1, trust, small_options(), 11, 25.0);
  EXPECT_GT(base.health.messages_sent, 0u);
  EXPECT_GT(base.edges.size(), trust.num_edges());  // pseudonym links exist
  for (const std::size_t shards : {2, 4, 8}) {
    const auto out = run_sharded(shards, trust, small_options(), 11, 25.0);
    EXPECT_TRUE(base == out) << "K=" << shards << " diverged";
  }
}

TEST(ShardedService, LinkFaultTrajectoriesAreShardCountInvariant) {
  const graph::Graph trust = test_graph(100, 9);
  OverlayServiceOptions options = small_options();
  fault::FaultPlan plan;
  plan.drop_probability = 0.2;
  plan.duplicate_probability = 0.1;
  plan.seed = 0xFEED;
  options.link_faults = plan;
  options.params.shuffle_timeout = 0.25;
  options.params.shuffle_max_retries = 2;

  const auto base = run_sharded(1, trust, options, 13, 20.0);
  EXPECT_GT(base.health.messages_dropped, 0u);
  for (const std::size_t shards : {2, 4}) {
    const auto out = run_sharded(shards, trust, options, 13, 20.0);
    EXPECT_TRUE(base == out) << "K=" << shards << " diverged";
  }
}

TEST(ShardedService, RequiresPerLinkStreamsForFaultPlans) {
  const graph::Graph trust = test_graph(40, 3);
  OverlayServiceOptions options = small_options();
  fault::FaultPlan plan;
  plan.drop_probability = 0.2;
  plan.per_link_streams = false;  // no shared fate stream exists
  options.link_faults = plan;
  sim::ShardedSimulator::Options so;
  so.shards = 2;
  so.num_actors = trust.num_nodes();
  so.lookahead = options.transport.min_latency;
  sim::ShardedSimulator sim(so);
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(0.6, 10.0);
  EXPECT_THROW(ShardedOverlayService(sim, trust, model, options, 1),
               CheckError);
}

TEST(ShardedService, NodeCrashTrajectoriesAreShardCountInvariant) {
  const graph::Graph trust = test_graph(100, 21);
  fault::FaultPlan plan;
  plan.seed = 0xC4A5;
  plan.node_crashes.push_back({5.0, 10, 15.0});
  plan.node_crashes.push_back({8.0, 5, -1.0});
  const auto crashes =
      fault::materialize_node_crashes(plan, trust.num_nodes());
  ASSERT_EQ(crashes.size(), 15u);

  const auto base =
      run_sharded(1, trust, small_options(), 17, 20.0, crashes);
  for (const std::size_t shards : {2, 8}) {
    const auto out =
        run_sharded(shards, trust, small_options(), 17, 20.0, crashes);
    EXPECT_TRUE(base == out) << "K=" << shards << " diverged";
  }
}

TEST(ShardedService, MixModeRunsOnMultipleShards) {
  const graph::Graph trust = test_graph(40, 5);
  OverlayServiceOptions options = small_options();
  options.use_mix_network = true;
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(0.6, 10.0);

  // The exit hop crosses shards, so it must clear the lookahead.
  sim::ShardedSimulator::Options so;
  so.shards = 2;
  so.num_actors = trust.num_nodes();
  so.lookahead = options.mix.min_hop_latency * 2.0;
  sim::ShardedSimulator starved(so);
  EXPECT_THROW(ShardedOverlayService(starved, trust, model, options, 1),
               CheckError);

  so.lookahead = options.mix.min_hop_latency;
  sim::ShardedSimulator two(so);
  ShardedOverlayService service(two, trust, model, options, 1);
  service.start();
  two.run_until(10.0);
  EXPECT_GT(service.protocol_health().messages_delivered, 0u);
}

// Figure-3-style scenario at reduced scale through the public runner:
// the sharded backend must give the SAME OverlayRunResult for K = 1
// and K = 8.
TEST(ShardedService, ScenarioRunnerIsShardCountInvariantAtFigureScale) {
  const graph::Graph trust = test_graph(200, 33);
  experiments::OverlayScenario scenario;
  scenario.churn.alpha = 0.5;
  scenario.window.warmup = 20.0;
  scenario.window.measure = 10.0;
  scenario.window.sample_every = 5.0;
  scenario.window.apl_sources = 16;
  scenario.seed = 77;
  scenario.params = small_options().params;

  scenario.shards = 1;
  const auto k1 = experiments::run_overlay(trust, scenario);
  scenario.shards = 8;
  const auto k8 = experiments::run_overlay(trust, scenario);

  EXPECT_EQ(k1.stats.frac_disconnected.mean(),
            k8.stats.frac_disconnected.mean());
  EXPECT_EQ(k1.stats.norm_apl.mean(), k8.stats.norm_apl.mean());
  EXPECT_EQ(k1.replacements, k8.replacements);
  EXPECT_EQ(k1.messages_total, k8.messages_total);
  EXPECT_EQ(k1.final_total_edges, k8.final_total_edges);
  EXPECT_EQ(k1.health.exchanges_completed, k8.health.exchanges_completed);
  EXPECT_EQ(k1.health.messages_delivered, k8.health.messages_delivered);

  // And the sharded path actually simulated something.
  EXPECT_GT(k1.messages_total, 0u);
}

TEST(ShardedService, ScenarioRunsPseudonymBlackoutsOnShardedBackend) {
  const graph::Graph trust = test_graph(60, 41);
  experiments::OverlayScenario scenario;
  scenario.window.warmup = 8.0;
  scenario.window.measure = 5.0;
  scenario.service_faults.pseudonym_blackouts.push_back({1.0, 6.0});

  scenario.shards = 1;
  const auto k1 = experiments::run_overlay(trust, scenario);
  scenario.shards = 3;
  const auto k3 = experiments::run_overlay(trust, scenario);
  EXPECT_EQ(k1.messages_total, k3.messages_total);
  EXPECT_EQ(k1.health.exchanges_completed, k3.health.exchanges_completed);
  EXPECT_GT(k1.messages_total, 0u);
}

}  // namespace
}  // namespace ppo::overlay
