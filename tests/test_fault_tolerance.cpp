// Fault-tolerance integration tests: the hardened overlay protocol
// under injected faults. Pins the acceptance properties of the
// robustness extension — zero-fault runs are bit-identical to
// fault-free ones, the fault sweep is jobs-invariant and repeatable,
// retry/backoff buys back graceful degradation under loss, the
// pseudonym service survives blackouts, and the overlay over the mix
// network recovers from relay outage windows at every shard count.
#include <gtest/gtest.h>

#include <iostream>

#include "churn/churn_model.hpp"
#include "experiments/figure_json.hpp"
#include "experiments/figures.hpp"
#include "graph/generators.hpp"
#include "overlay/sharded_service.hpp"
#include "privacylink/mix_transport.hpp"

namespace ppo::experiments {
namespace {

overlay::OverlayParams small_params() {
  overlay::OverlayParams p;
  p.cache_size = 60;
  p.shuffle_length = 8;
  p.target_links = 12;
  p.pseudonym_lifetime = 30.0;  // r = 1: links need continuous upkeep
  return p;
}

/// A sparse, high-diameter trust graph whose online-induced subgraph
/// shatters under churn — connectivity then genuinely depends on the
/// overlay's pseudonym links staying fresh, which is exactly what
/// message loss attacks.
OverlayScenario ring_scenario(std::uint64_t seed) {
  OverlayScenario s;
  s.params = small_params();
  s.churn.alpha = 0.5;
  s.window.warmup = 150.0;
  s.window.measure = 50.0;
  s.window.sample_every = 10.0;
  s.window.apl_sources = 16;
  s.seed = seed;
  return s;
}

fault::FaultPlan loss_plan(double loss, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.drop_probability = loss;
  plan.seed = seed;
  return plan;
}

void enable_retries(overlay::OverlayParams& p, std::size_t retries) {
  p.shuffle_timeout = 0.25;  // >> the transport's 0.05 max latency
  p.shuffle_max_retries = retries;
  p.shuffle_retry_backoff = 2.0;
}

void expect_same_run(const OverlayRunResult& a, const OverlayRunResult& b) {
  EXPECT_EQ(a.stats.frac_disconnected.mean(), b.stats.frac_disconnected.mean());
  EXPECT_EQ(a.stats.norm_apl.mean(), b.stats.norm_apl.mean());
  EXPECT_EQ(a.stats.online_fraction.mean(), b.stats.online_fraction.mean());
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_EQ(a.health.requests_sent, b.health.requests_sent);
  EXPECT_EQ(a.health.messages_sent, b.health.messages_sent);
  EXPECT_EQ(a.health.messages_delivered, b.health.messages_delivered);
}

/// Acceptance: a FaultyTransport with nothing to inject is a true
/// no-op — the simulation trajectory matches the unwrapped run
/// exactly, whether the plan is absent, inert, or enabled but idle.
TEST(FaultTolerance, ZeroFaultPlanIsBitIdenticalToBaseline) {
  const graph::Graph ring = graph::ring(48);
  const OverlayScenario base = ring_scenario(5);

  const auto bare = run_overlay(ring, base);

  OverlayScenario inert = base;
  inert.faults = fault::FaultPlan{};  // enabled() == false: no wrap
  const auto with_inert = run_overlay(ring, inert);
  expect_same_run(bare, with_inert);

  OverlayScenario idle = base;
  fault::FaultPlan far_future;
  far_future.link_outages.push_back({1e9, 1e9 + 1.0});
  idle.faults = far_future;  // enabled() == true: wraps, never fires
  const auto with_idle = run_overlay(ring, idle);
  expect_same_run(bare, with_idle);
  EXPECT_EQ(with_idle.health.messages_dropped, bare.health.messages_dropped);
}

/// Acceptance: at 10% loss and alpha = 0.5, the retry machinery keeps
/// the disconnected fraction within 2x of the lossless run, while the
/// same loss without retries measurably degrades the protocol.
/// Connectivity of a 64-node ring under churn is dominated by the churn
/// draw, so whether no-retry ends up no better than retry is a coin flip
/// at any one seed (it held at 78 % of seeds 1-80); that ordering is
/// checked on the mean over 30 seeds.
TEST(FaultTolerance, RetryKeepsConnectivityUnderModerateLoss) {
  const graph::Graph ring = graph::ring(64);
  const OverlayScenario base = ring_scenario(7);

  const auto lossless = run_overlay(ring, base);

  OverlayScenario retry = base;
  retry.faults = loss_plan(0.1, 0xFA11);
  enable_retries(retry.params, 2);
  const auto with_retry = run_overlay(ring, retry);

  OverlayScenario no_retry = base;
  no_retry.faults = loss_plan(0.1, 0xFA11);  // identical loss pattern
  enable_retries(no_retry.params, 0);
  const auto without_retry = run_overlay(ring, no_retry);

  const double base_frac = lossless.stats.frac_disconnected.mean();
  const double retry_frac = with_retry.stats.frac_disconnected.mean();
  const double noretry_frac = without_retry.stats.frac_disconnected.mean();
  std::cerr << "frac_disconnected lossless=" << base_frac
            << " retry=" << retry_frac << " no-retry=" << noretry_frac
            << "\n";
  std::cerr << "completion lossless=" << lossless.health.completion_rate()
            << " retry=" << with_retry.health.completion_rate()
            << " no-retry=" << without_retry.health.completion_rate()
            << "\n";

  // Graceful degradation: retries hold the line...
  EXPECT_LE(retry_frac, std::max(2.0 * base_frac, 0.02));
  // ...and recover most of the lost exchanges,
  EXPECT_GT(with_retry.health.completion_rate(),
            without_retry.health.completion_rate() + 0.05);
  EXPECT_GT(with_retry.health.request_retries, 0u);
  EXPECT_GT(with_retry.health.request_timeouts, 0u);
  // while the unhardened protocol visibly suffers.
  EXPECT_EQ(without_retry.health.request_retries, 0u);
  EXPECT_GT(without_retry.health.exchanges_aborted,
            lossless.health.exchanges_aborted);
  double retry_sum = 0.0, noretry_sum = 0.0;
  for (std::uint64_t seed = 7; seed < 7 + 30; ++seed) {
    OverlayScenario r = ring_scenario(seed);
    r.faults = loss_plan(0.1, 0xFA11);
    enable_retries(r.params, 2);
    OverlayScenario n = r;
    enable_retries(n.params, 0);
    retry_sum += run_overlay(ring, r).stats.frac_disconnected.mean();
    noretry_sum += run_overlay(ring, n).stats.frac_disconnected.mean();
  }
  std::cerr << "mean frac_disconnected over 30 seeds retry="
            << retry_sum / 30.0 << " no-retry=" << noretry_sum / 30.0
            << "\n";
  EXPECT_GE(noretry_sum, retry_sum);
}

TEST(FaultTolerance, TimeoutsAreScopedToTheirExchange) {
  // At full availability with zero faults every response arrives well
  // inside the timeout, so every armed timer must find its exchange
  // already completed and stay silent: no timeout may abort an
  // exchange that got its response, and the hardened protocol
  // completes exactly as many exchanges as the unhardened one.
  // (Under churn this does NOT hold — requests to offline nodes are
  // dropped by the transport and legitimately time out.)
  const graph::Graph ring = graph::ring(48);
  OverlayScenario plain = ring_scenario(11);
  plain.churn.alpha = 1.0;
  OverlayScenario hardened = plain;
  enable_retries(hardened.params, 2);

  const auto a = run_overlay(ring, plain);
  const auto b = run_overlay(ring, hardened);
  EXPECT_EQ(b.health.request_retries, 0u);
  EXPECT_EQ(b.health.request_timeouts, 0u);
  EXPECT_EQ(a.health.exchanges_completed, b.health.exchanges_completed);
  EXPECT_EQ(a.health.requests_sent, b.health.requests_sent);
}

TEST(FaultTolerance, SweepIsJobsInvariantAndRepeatable) {
  WorkbenchOptions opts;
  opts.seed = 17;
  opts.social.num_nodes = 3000;
  opts.social.sub_community_size = 50;
  opts.social.community_size = 500;
  opts.trust_nodes = 120;

  FigureScale scale;
  scale.window.warmup = 40.0;
  scale.window.measure = 20.0;
  scale.window.sample_every = 10.0;
  scale.window.apl_sources = 8;
  scale.alphas = {0.5, 1.0};
  scale.seed = 3;

  FaultToleranceSpec spec;
  spec.loss_rates = {0.2};

  const auto run = [&](std::size_t jobs) {
    Workbench bench(opts);
    FigureScale s = scale;
    s.jobs = jobs;
    return fault_tolerance_sweep(bench, s, spec);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  const auto repeat = run(8);

  const auto expect_identical = [](const FaultFigure& a,
                                   const FaultFigure& b) {
    ASSERT_EQ(a.connectivity.size(), b.connectivity.size());
    for (std::size_t j = 0; j < a.connectivity.size(); ++j) {
      EXPECT_EQ(a.connectivity[j].name, b.connectivity[j].name);
      EXPECT_EQ(a.connectivity[j].values, b.connectivity[j].values);
      EXPECT_EQ(a.napl[j].values, b.napl[j].values);
      EXPECT_EQ(a.completion[j].values, b.completion[j].values);
      EXPECT_EQ(a.health[j].requests_sent, b.health[j].requests_sent);
      EXPECT_EQ(a.health[j].messages_dropped, b.health[j].messages_dropped);
    }
  };
  expect_identical(serial, parallel);
  expect_identical(parallel, repeat);
  EXPECT_EQ(serial.connectivity[0].name, "lossless");
  EXPECT_EQ(serial.connectivity[1].name, "retry-loss0.20");
  EXPECT_EQ(serial.connectivity[2].name, "no-retry-loss0.20");
}

TEST(FaultTolerance, FaultFigureJsonCarriesHealthBlock) {
  WorkbenchOptions opts;
  opts.seed = 17;
  opts.social.num_nodes = 3000;
  opts.social.sub_community_size = 50;
  opts.social.community_size = 500;
  opts.trust_nodes = 100;

  FigureScale scale;
  scale.window.warmup = 30.0;
  scale.window.measure = 10.0;
  scale.window.sample_every = 10.0;
  scale.window.apl_sources = 8;
  scale.alphas = {0.75};
  scale.seed = 3;
  scale.jobs = 2;

  FaultToleranceSpec spec;
  spec.loss_rates = {0.1};

  Workbench bench(opts);
  const auto fig = fault_tolerance_sweep(bench, scale, spec);
  const runner::Json j = to_json(fig);
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("connectivity").size(), 3u);
  EXPECT_EQ(j.at("completion").size(), 3u);
  // Health is written once, as registry cells keyed by series name —
  // not as a second copy inside the figure payload.
  EXPECT_FALSE(j.contains("health"));
  ASSERT_EQ(fig.connectivity.size(), 3u);
  EXPECT_EQ(fig.connectivity[0].name, "lossless");
  const auto snap = collect_metrics(fig).snapshot();
  const auto cell = [&](const char* name, std::size_t series) {
    return obs::metric_key(name, {{"series", fig.connectivity[series].name}});
  };
  EXPECT_GT(snap.counters.at(cell("protocol_request_retries", 1)), 0u);
  EXPECT_GT(snap.counters.at(cell("protocol_request_timeouts", 2)), 0u);
  EXPECT_EQ(snap.counters.at(cell("protocol_request_retries", 2)), 0u);
  EXPECT_GT(snap.gauges.at(cell("protocol_completion_rate", 0)), 0.0);
  // The document survives a dump/parse round trip unchanged.
  EXPECT_EQ(runner::Json::parse(j.dump(2)), j);
}

TEST(FaultTolerance, PseudonymBlackoutDegradesGracefully) {
  // A blackout spanning the whole measurement window: pseudonym-link
  // shuffles cannot resolve their targets, so request traffic drops,
  // but the protocol keeps running and the run completes normally.
  const graph::Graph ring = graph::ring(48);
  const OverlayScenario base = ring_scenario(13);

  OverlayScenario dark = base;
  dark.service_faults.pseudonym_blackouts.push_back(
      {base.window.warmup, base.window.warmup + base.window.measure + 1.0});

  const auto normal = run_overlay(ring, base);
  const auto blacked_out = run_overlay(ring, dark);
  EXPECT_LT(blacked_out.health.requests_sent, normal.health.requests_sent);
  EXPECT_GT(blacked_out.health.exchanges_completed, 0u);
}

/// Satellite: the overlay over the full mix-network stack recovers
/// after relays crash and revive. Relay outages are data
/// (MixNetwork::schedule_crash windows), so the run is the same at
/// every shard count. While too few relays are alive to build
/// circuits, sends fail gracefully (counted, not fatal); once the
/// window closes, shuffle exchanges resume.
TEST(FaultTolerance, MixRelayCrashReviveRecovery) {
  const graph::Graph trust = graph::ring(12);
  churn::ExponentialChurn model(
      churn::ExponentialChurn::from_availability(0.999, 30.0));

  overlay::OverlayServiceOptions options;
  options.params = small_params();
  options.use_mix_network = true;
  options.mix.num_relays = 4;
  options.mix_transport.circuit_hops = 3;

  struct Sample {
    std::uint64_t circuit_failures = 0;
    std::uint64_t completed = 0;
    std::size_t live_relays = 0;
    bool operator==(const Sample&) const = default;
  };
  const auto run = [&](std::size_t shards) {
    sim::ShardedSimulator sim(
        overlay::simulator_options(options, trust.num_nodes(), shards));
    overlay::ShardedOverlayService service(sim, trust, model, options, 3);
    service.mutable_mix_network()->schedule_crash(0, 10.0, 20.0);
    service.mutable_mix_network()->schedule_crash(1, 10.0, 20.0);
    service.start();
    const auto* mix_transport =
        dynamic_cast<const privacylink::MixTransport*>(&service.transport());
    EXPECT_NE(mix_transport, nullptr);
    std::vector<Sample> samples;
    for (const double t : {10.5, 20.0, 40.0}) {
      sim.run_until(t);
      samples.push_back({mix_transport->circuit_failures(),
                         service.total_counters().shuffles_completed,
                         service.mix_network()->live_relay_count()});
    }
    return samples;
  };

  const std::vector<Sample> k1 = run(1);
  ASSERT_EQ(k1.size(), 3u);
  EXPECT_GT(k1[0].completed, 0u);
  EXPECT_EQ(k1[0].live_relays, 2u);
  // Two live relays cannot form 3-hop circuits: every send in the
  // outage window was counted and lost instead of aborting the run.
  EXPECT_GT(k1[1].circuit_failures, k1[0].circuit_failures);
  EXPECT_EQ(k1[1].live_relays, 4u);  // [10, 20) is half-open
  EXPECT_EQ(k1[2].live_relays, 4u);
  EXPECT_GT(k1[2].completed, k1[1].completed);
  EXPECT_EQ(k1[2].circuit_failures, k1[1].circuit_failures);
  // Same circuit failures, completions and live relays at K = 2.
  EXPECT_EQ(run(2), k1);
}

}  // namespace
}  // namespace ppo::experiments
