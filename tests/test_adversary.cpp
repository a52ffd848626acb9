// Byzantine-adversary layer unit + integration tests: plan validation
// and deterministic role materialization, the zero-adversary
// bit-identity guarantee at K = 1, per-role attack
// accounting, the protocol defenses (merge validation, per-peer rate
// limiting, sampler slot-churn damping) and the resilience-sweep
// figure shape.
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/plan.hpp"
#include "common/check.hpp"
#include "experiments/adversary_study.hpp"
#include "experiments/figure_json.hpp"
#include "experiments/scenario.hpp"
#include "graph/generators.hpp"

namespace ppo::experiments {
namespace {

using adversary::AdversaryPlan;
using adversary::Role;

graph::Graph small_trust(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return graph::holme_kim(n, 3, 0.3, rng);
}

/// High availability so the attack accounting is traffic-rich, small
/// window so each run stays fast. Both arms run the retry machinery:
/// droppers and rate limiters starve exchanges, and without timeouts
/// a starved node blocks forever.
OverlayScenario attack_scenario(std::uint64_t seed) {
  OverlayScenario s;
  s.params.cache_size = 60;
  s.params.shuffle_length = 8;
  s.params.target_links = 10;
  s.params.pseudonym_lifetime = 30.0;
  s.params.shuffle_timeout = 0.25;
  s.params.shuffle_max_retries = 1;
  s.churn.alpha = 0.9;
  s.window.warmup = 60.0;
  s.window.measure = 20.0;
  s.window.sample_every = 10.0;
  s.window.apl_sources = 8;
  s.seed = seed;
  return s;
}

AdversaryPlan single_role_plan(Role role, double fraction,
                               std::uint64_t seed) {
  AdversaryPlan plan;
  plan.seed = seed;
  switch (role) {
    case Role::kCachePolluter: plan.polluter_fraction = fraction; break;
    case Role::kEclipser: plan.eclipser_fraction = fraction; break;
    case Role::kDropper: plan.dropper_fraction = fraction; break;
    case Role::kReplayer: plan.replayer_fraction = fraction; break;
    case Role::kHonest: break;
  }
  return plan;
}

void expect_same_run(const OverlayRunResult& a, const OverlayRunResult& b) {
  EXPECT_EQ(a.stats.frac_disconnected.mean(), b.stats.frac_disconnected.mean());
  EXPECT_EQ(a.stats.norm_apl.mean(), b.stats.norm_apl.mean());
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.final_total_edges, b.final_total_edges);
  EXPECT_EQ(a.health.requests_sent, b.health.requests_sent);
  EXPECT_EQ(a.health.responses_sent, b.health.responses_sent);
  EXPECT_EQ(a.health.exchanges_completed, b.health.exchanges_completed);
  EXPECT_EQ(a.health.messages_delivered, b.health.messages_delivered);
}

TEST(AdversaryPlan, DefaultPlanIsDisabledAndValid) {
  const AdversaryPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.validate();  // does not throw

  AdversaryPlan armed;
  armed.replayer_fraction = 0.1;
  EXPECT_TRUE(armed.enabled());
}

TEST(AdversaryPlan, ValidateRejectsNonsense) {
  AdversaryPlan fraction;
  fraction.polluter_fraction = 1.5;
  EXPECT_THROW(fraction.validate(), CheckError);

  AdversaryPlan sum;
  sum.polluter_fraction = 0.6;
  sum.eclipser_fraction = 0.6;
  EXPECT_THROW(sum.validate(), CheckError);

  AdversaryPlan tick;
  tick.polluter_fraction = 0.1;
  tick.polluter_tick_multiplier = 0.5;
  EXPECT_THROW(tick.validate(), CheckError);

  AdversaryPlan offset;
  offset.eclipser_fraction = 0.1;
  offset.eclipse_offset = 0;
  EXPECT_THROW(offset.validate(), CheckError);
}

TEST(AdversaryPlan, MaterializeRolesIsDeterministicDisjointAndCounted) {
  AdversaryPlan plan;
  plan.polluter_fraction = 0.1;
  plan.eclipser_fraction = 0.1;
  plan.dropper_fraction = 0.1;
  plan.replayer_fraction = 0.1;
  plan.seed = 0xBEE;

  const auto a = adversary::materialize_roles(plan, 100);
  const auto b = adversary::materialize_roles(plan, 100);
  EXPECT_EQ(a.roles, b.roles);
  EXPECT_EQ(a.victim, b.victim);

  // round(0.1 * 100) of each role, disjoint by construction.
  std::size_t counts[5] = {};
  for (const Role r : a.roles) ++counts[static_cast<std::size_t>(r)];
  EXPECT_EQ(counts[static_cast<std::size_t>(Role::kCachePolluter)], 10u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Role::kEclipser)], 10u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Role::kDropper)], 10u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Role::kReplayer)], 10u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Role::kHonest)], 60u);
  EXPECT_EQ(a.attacker_count, 40u);

  // Every eclipser targets an honest victim; nobody else has one.
  for (std::size_t v = 0; v < a.roles.size(); ++v) {
    if (a.roles[v] == Role::kEclipser) {
      ASSERT_NE(a.victim[v], adversary::kNoVictim);
      EXPECT_EQ(a.roles[a.victim[v]], Role::kHonest);
    } else {
      EXPECT_EQ(a.victim[v], adversary::kNoVictim);
    }
  }

  // A different seed reshuffles the assignment.
  AdversaryPlan reseeded = plan;
  reseeded.seed = 0xFEE;
  EXPECT_NE(adversary::materialize_roles(reseeded, 100).roles, a.roles);
}

TEST(AdversaryPlan, MakeAttackPlanMapsNamesToRoles) {
  const auto pollute = make_attack_plan("pollute", 0.2, 1);
  EXPECT_DOUBLE_EQ(pollute.polluter_fraction, 0.2);
  EXPECT_DOUBLE_EQ(pollute.eclipser_fraction, 0.0);

  const auto mixed = make_attack_plan("mixed", 0.2, 1);
  EXPECT_DOUBLE_EQ(mixed.polluter_fraction, 0.05);
  EXPECT_DOUBLE_EQ(mixed.eclipser_fraction, 0.05);
  EXPECT_DOUBLE_EQ(mixed.dropper_fraction, 0.05);
  EXPECT_DOUBLE_EQ(mixed.replayer_fraction, 0.05);

  EXPECT_THROW(make_attack_plan("sybil", 0.2, 1), CheckError);
}

/// Acceptance: a plan with every fraction at zero must leave the run
/// bit-identical to a plan-free one — the engine is never constructed
/// and no RNG stream shifts.
TEST(Adversary, ZeroAdversaryPlanIsBitIdenticalToBaseline) {
  const graph::Graph trust = small_trust(64, 5);
  const OverlayScenario base = attack_scenario(19);
  const auto bare = run_overlay(trust, base);

  OverlayScenario wrapped = base;
  wrapped.adversary = AdversaryPlan{};  // enabled() == false
  const auto with_plan = run_overlay(trust, wrapped);

  expect_same_run(bare, with_plan);
  EXPECT_EQ(with_plan.health.forged_injected, 0u);
  EXPECT_EQ(with_plan.health.replays_injected, 0u);
  EXPECT_EQ(with_plan.health.honest_requests_sent,
            with_plan.health.requests_sent);
}

TEST(Adversary, PollutersInjectAndValidationRejectsForgeries) {
  const graph::Graph trust = small_trust(64, 5);
  OverlayScenario open = attack_scenario(23);
  open.adversary = single_role_plan(Role::kCachePolluter, 0.25, 0xA1);

  const auto undefended = run_overlay(trust, open);
  EXPECT_GT(undefended.health.forged_injected, 0u);
  EXPECT_EQ(undefended.health.forged_rejected, 0u);

  OverlayScenario defended = open;
  defended.params.validate_received = true;
  const auto checked = run_overlay(trust, defended);
  EXPECT_GT(checked.health.forged_injected, 0u);
  // Forged expiries are now + lifetime * U(0.5, 2.0): the > 1.0
  // portion is over the honest maximum and must be caught.
  EXPECT_GT(checked.health.forged_rejected, 0u);
}

TEST(Adversary, RateLimiterStarvesFlooders) {
  const graph::Graph trust = small_trust(64, 5);
  OverlayScenario s = attack_scenario(29);
  s.adversary = single_role_plan(Role::kCachePolluter, 0.25, 0xA2);
  s.params.peer_rate_limit = 4;  // polluters tick 4x faster: they trip it
  s.params.peer_rate_window = 10.0;

  const auto run = run_overlay(trust, s);
  EXPECT_GT(run.health.requests_rate_limited, 0u);
  // Honest counters stay a strict subset of the global ones.
  EXPECT_GT(run.health.honest_requests_sent, 0u);
  EXPECT_LT(run.health.honest_requests_sent, run.health.requests_sent);
}

TEST(Adversary, EclipsersCaptureSlotsAndDwellDamps) {
  const graph::Graph trust = small_trust(64, 5);
  OverlayScenario open = attack_scenario(31);
  open.adversary = single_role_plan(Role::kEclipser, 0.25, 0xA3);

  const auto undefended = run_overlay(trust, open);
  EXPECT_GT(undefended.health.eclipse_records_injected, 0u);
  EXPECT_GT(undefended.health.slots_eclipsed, 0u);
  EXPECT_EQ(undefended.health.displacements_damped, 0u);

  OverlayScenario damped = open;
  damped.params.sampler_min_dwell = 5.0;
  const auto defended = run_overlay(trust, damped);
  EXPECT_GT(defended.health.displacements_damped, 0u);
}

TEST(Adversary, DroppersSuppressResponses) {
  const graph::Graph trust = small_trust(64, 5);
  OverlayScenario s = attack_scenario(37);
  s.adversary = single_role_plan(Role::kDropper, 0.25, 0xA4);

  const auto run = run_overlay(trust, s);
  EXPECT_GT(run.health.responses_suppressed, 0u);
  // Starved exchanges surface as timeouts, not hangs.
  EXPECT_GT(run.health.request_timeouts, 0u);
}

TEST(Adversary, ReplayersReinjectObservedRecords) {
  const graph::Graph trust = small_trust(64, 5);
  OverlayScenario s = attack_scenario(41);
  s.adversary = single_role_plan(Role::kReplayer, 0.25, 0xA5);

  const auto run = run_overlay(trust, s);
  EXPECT_GT(run.health.replays_injected, 0u);
}

TEST(Adversary, SweepHasExpectedShapeAndPassesZeroCheck) {
  WorkbenchOptions opts;
  opts.seed = 17;
  opts.social.num_nodes = 3000;
  opts.social.sub_community_size = 50;
  opts.social.community_size = 500;
  opts.trust_nodes = 80;

  FigureScale scale;
  scale.window.warmup = 30.0;
  scale.window.measure = 10.0;
  scale.window.sample_every = 10.0;
  scale.window.apl_sources = 8;
  scale.seed = 3;
  scale.jobs = 2;

  AdversarySpec spec;
  spec.fractions = {0.0, 0.2};
  spec.attacks = {"pollute"};

  Workbench bench(opts);
  const auto fig = adversary_resilience_sweep(bench, scale, spec);

  ASSERT_EQ(fig.connectivity.size(), 2u);  // open + defended
  EXPECT_EQ(fig.connectivity[0].name, "pollute-open");
  EXPECT_EQ(fig.connectivity[1].name, "pollute-defended");
  for (const auto& series : fig.connectivity)
    EXPECT_EQ(series.values.size(), spec.fractions.size());
  ASSERT_EQ(fig.completion.size(), 2u);
  ASSERT_EQ(fig.health.size(), 2u);
  EXPECT_TRUE(fig.zero_adversary_identical);
  // Health is merged over attacked cells only: the open arm carries
  // the injections, the defended arm additionally catches some.
  EXPECT_GT(fig.health[0].forged_injected, 0u);
  EXPECT_GT(fig.health[1].forged_rejected, 0u);
  EXPECT_EQ(fig.health[0].forged_rejected, 0u);

  // The JSON figure carries the cross-check flag and both series.
  const runner::Json j = to_json(fig);
  EXPECT_TRUE(j.at("zero_adversary_identical").as_bool());
  EXPECT_EQ(j.at("connectivity").size(), 2u);
  EXPECT_FALSE(j.contains("health"));
  const auto counters = collect_metrics(fig).snapshot().counters;
  EXPECT_GT(counters.at("attack_forged_injected{series=pollute-open}"), 0u);
  EXPECT_GT(counters.at("defense_forged_rejected{series=pollute-defended}"),
            0u);
  EXPECT_EQ(runner::Json::parse(j.dump(2)), j);
}

}  // namespace
}  // namespace ppo::experiments
