// Time-varying loss profiles (robustness extension): Gilbert-Elliott
// burst loss and the diurnal sinusoid — enabled() gating, validation,
// the pre-materialized chain's stationary statistics, additive
// composition, determinism across instances, and empirical loss
// through the FaultyTransport.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "fault/faulty_transport.hpp"
#include "link_inbox.hpp"
#include "privacylink/transport.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim_closures.hpp"

namespace ppo::fault {
namespace {

using privacylink::NodeId;

struct Fixture {
  sim::ShardedSimulator sim;
  sim::Closures ev{sim};
  std::vector<char> online;
  privacylink::Inbox inbox{sim};
  privacylink::Transport inner;
  FaultyTransport faulty;

  Fixture(std::size_t n, FaultPlan plan)
      : sim({.num_actors = n}),
        online(n, 1),
        inner(sim, {.min_latency = 0.01, .max_latency = 0.01}, Rng(7),
              [this](NodeId v) { return online[v] != 0; }, n),
        faulty(sim, inner, plan, n) {
    faulty.set_receiver(inbox);
  }

  /// Deliveries that arrived before time `t`.
  std::size_t delivered_before(double t) const {
    std::size_t n = 0;
    for (const auto& d : inbox.got) n += d.time < t;
    return n;
  }
};

FaultPlan ge_plan(double p_gb, double p_bg, double good, double bad,
                  double horizon) {
  FaultPlan plan;
  plan.gilbert_elliott.p_good_to_bad = p_gb;
  plan.gilbert_elliott.p_bad_to_good = p_bg;
  plan.gilbert_elliott.good_drop = good;
  plan.gilbert_elliott.bad_drop = bad;
  plan.gilbert_elliott.step = 1.0;
  plan.gilbert_elliott.horizon = horizon;
  return plan;
}

TEST(FaultProfiles, EnabledGating) {
  GilbertElliottProfile ge;
  EXPECT_FALSE(ge.enabled());
  ge.bad_drop = 0.5;
  EXPECT_FALSE(ge.enabled());  // zero horizon: nothing materialized
  ge.horizon = 100.0;
  EXPECT_TRUE(ge.enabled());

  DiurnalProfile diurnal;
  EXPECT_FALSE(diurnal.enabled());
  diurnal.amplitude = 0.3;
  EXPECT_FALSE(diurnal.enabled());  // zero period
  diurnal.period = 100.0;
  EXPECT_TRUE(diurnal.enabled());

  // Either profile alone arms the plan.
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.gilbert_elliott = ge;
  EXPECT_TRUE(plan.enabled());
  FaultPlan sinus;
  sinus.diurnal = diurnal;
  EXPECT_TRUE(sinus.enabled());
}

TEST(FaultProfiles, ValidateRejectsNonsense) {
  FaultPlan bad_prob = ge_plan(1.5, 0.5, 0.0, 0.5, 100.0);
  EXPECT_THROW(bad_prob.validate(), CheckError);

  FaultPlan bad_drop = ge_plan(0.2, 0.2, 0.0, 1.5, 100.0);
  EXPECT_THROW(bad_drop.validate(), CheckError);

  FaultPlan zero_step = ge_plan(0.2, 0.2, 0.0, 0.5, 100.0);
  zero_step.gilbert_elliott.step = 0.0;
  EXPECT_THROW(zero_step.validate(), CheckError);

  FaultPlan amp;
  amp.diurnal.amplitude = 1.5;
  amp.diurnal.period = 10.0;
  EXPECT_THROW(amp.validate(), CheckError);

  // In-range profiles pass.
  ge_plan(0.2, 0.4, 0.0, 0.5, 100.0).validate();
}

TEST(FaultProfiles, StationaryBadFractionMatchesChain) {
  // p_gb = 0.2, p_bg = 0.4: the chain spends 1/3 of its steps bad.
  const FaultPlan plan = ge_plan(0.2, 0.4, 0.0, 0.5, 20000.0);
  EXPECT_NEAR(plan.gilbert_elliott.stationary_bad(), 1.0 / 3.0, 1e-12);

  Fixture fx(2, plan);
  std::size_t bad_steps = 0, steps = 0;
  for (double t = 0.5; t < 20000.0; t += 1.0, ++steps)
    bad_steps += fx.faulty.profile_extra_drop(t) > 0.25;
  const double empirical =
      static_cast<double>(bad_steps) / static_cast<double>(steps);
  EXPECT_NEAR(empirical, 1.0 / 3.0, 0.03);

  // Queries past the horizon freeze in the final materialized step
  // instead of reading out of bounds.
  const double last = fx.faulty.profile_extra_drop(20000.0);
  EXPECT_EQ(fx.faulty.profile_extra_drop(1e9), last);
}

TEST(FaultProfiles, ChainIsDeterministicPerSeed) {
  const FaultPlan plan = ge_plan(0.3, 0.3, 0.1, 0.6, 500.0);
  Fixture a(2, plan), b(2, plan);
  for (double t = 0.5; t < 500.0; t += 1.0)
    EXPECT_EQ(a.faulty.profile_extra_drop(t), b.faulty.profile_extra_drop(t));

  FaultPlan reseeded = plan;
  reseeded.seed = 0x5EED ^ 0xFF;
  Fixture c(2, reseeded);
  bool differs = false;
  for (double t = 0.5; t < 500.0 && !differs; t += 1.0)
    differs = a.faulty.profile_extra_drop(t) != c.faulty.profile_extra_drop(t);
  EXPECT_TRUE(differs);
}

TEST(FaultProfiles, DiurnalPeakAndTrough) {
  FaultPlan plan;
  plan.diurnal.amplitude = 0.4;
  plan.diurnal.period = 100.0;
  Fixture fx(2, plan);
  // amplitude * 0.5 * (1 + sin(2 pi t / period)): peak at t = 25,
  // trough at t = 75, half-amplitude at t = 0.
  EXPECT_NEAR(fx.faulty.profile_extra_drop(25.0), 0.4, 1e-9);
  EXPECT_NEAR(fx.faulty.profile_extra_drop(75.0), 0.0, 1e-9);
  EXPECT_NEAR(fx.faulty.profile_extra_drop(0.0), 0.2, 1e-9);
}

TEST(FaultProfiles, ProfilesComposeAdditively) {
  // A GE chain pinned good (p_gb = 0) contributes its constant
  // good_drop; the diurnal sinusoid rides on top.
  FaultPlan plan = ge_plan(0.0, 0.0, 0.1, 0.9, 1000.0);
  plan.diurnal.amplitude = 0.4;
  plan.diurnal.period = 100.0;
  Fixture fx(2, plan);
  EXPECT_NEAR(fx.faulty.profile_extra_drop(25.0), 0.1 + 0.4, 1e-9);
  EXPECT_NEAR(fx.faulty.profile_extra_drop(75.0), 0.1, 1e-9);
}

TEST(FaultProfiles, EmpiricalLossTracksBadState) {
  // Chain pinned bad from the second step on (p_gb = 1, p_bg = 0) with
  // certain loss while bad: every message sent past t = 1 is dropped,
  // while the t < 1 (good, zero-loss) sends all deliver.
  const FaultPlan plan = ge_plan(1.0, 0.0, 0.0, 1.0, 1000.0);
  Fixture fx(2, plan);

  for (int i = 0; i < 20; ++i)
    fx.ev.at(0, 0.2, [&] { fx.faulty.send(0, 1, {}); });
  for (int i = 0; i < 50; ++i)
    fx.ev.at(0, 10.0 + i, [&] { fx.faulty.send(0, 1, {}); });
  fx.sim.run_all();

  const std::size_t early = fx.delivered_before(1.0);
  EXPECT_EQ(early, 20u);
  EXPECT_EQ(fx.inbox.got.size() - early, 0u);  // late
  EXPECT_EQ(fx.faulty.counters().injected_drops, 50u);
}

TEST(FaultProfiles, ModerateLossIsStatisticallyPlausible) {
  // Pinned bad with 40% extra loss: over 2000 sends the delivered
  // fraction concentrates near 0.6.
  const FaultPlan plan = ge_plan(1.0, 0.0, 0.0, 0.4, 5000.0);
  Fixture fx(2, plan);

  const std::size_t sends = 2000;
  for (std::size_t i = 0; i < sends; ++i)
    fx.ev.at(0, 5.0 + static_cast<double>(i),
             [&] { fx.faulty.send(0, 1, {}); });
  fx.sim.run_all();
  const std::size_t delivered = fx.inbox.got.size();

  const double rate =
      static_cast<double>(delivered) / static_cast<double>(sends);
  EXPECT_NEAR(rate, 0.6, 0.05);
  EXPECT_EQ(fx.faulty.counters().injected_drops, sends - delivered);
}

}  // namespace
}  // namespace ppo::fault
