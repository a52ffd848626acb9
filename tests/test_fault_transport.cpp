// Fault-injection layer unit tests: FaultPlan validation, the
// FaultyTransport decorator's fault semantics, its zero-fault no-op
// guarantee and the LinkTransport drop-accounting invariant, plus the
// FaultInjector's node-crash scheduling.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/check.hpp"
#include "fault/fault_injector.hpp"
#include "fault/faulty_transport.hpp"
#include "link_inbox.hpp"
#include "privacylink/transport.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim_closures.hpp"

namespace ppo::fault {
namespace {

using privacylink::Inbox;
using privacylink::NodeId;

struct Fixture {
  sim::ShardedSimulator sim;
  sim::Closures ev{sim};
  std::vector<char> online;
  Inbox inbox{sim};
  privacylink::Transport inner;
  FaultyTransport faulty;

  Fixture(std::size_t n, FaultPlan plan,
          privacylink::TransportOptions opts = {.min_latency = 1.0,
                                                .max_latency = 1.0})
      : sim({.num_actors = n}),
        online(n, 1),
        inner(sim, opts, Rng(7),
              [this](NodeId v) { return online[v] != 0; }, n),
        faulty(sim, inner, plan, n) {
    faulty.set_receiver(inbox);
  }

  std::size_t deliveries() const { return inbox.got.size(); }
  /// Deliveries whose message is `tag`.
  std::size_t deliveries(std::uint8_t tag) const {
    std::size_t n = 0;
    for (const Inbox::Delivery& d : inbox.got)
      n += d.message == sim::Payload{tag};
    return n;
  }
};

/// Arrival times of 20 messages 0 -> 1 over a bare transport, or over
/// the same transport wrapped with `plan`.
std::vector<double> arrival_times(const FaultPlan* plan) {
  sim::ShardedSimulator sim({.num_actors = 2});
  Inbox inbox(sim);
  privacylink::Transport t(sim, {.min_latency = 0.1, .max_latency = 0.9},
                           Rng(7), [](NodeId) { return true; }, 2);
  t.set_receiver(inbox);
  std::optional<FaultyTransport> faulty;
  if (plan != nullptr) {
    faulty.emplace(sim, t, *plan, 2);
    faulty->set_receiver(inbox);
  }
  privacylink::LinkTransport& link =
      faulty ? static_cast<privacylink::LinkTransport&>(*faulty) : t;
  for (int i = 0; i < 20; ++i) link.send(0, 1, {});
  sim.run_all();
  return inbox.times();
}

TEST(FaultPlan, DefaultPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.validate();  // does not throw
}

TEST(FaultPlan, AnyFaultKnobEnables) {
  FaultPlan plan;
  plan.drop_probability = 0.1;
  EXPECT_TRUE(plan.enabled());

  FaultPlan outage;
  outage.link_outages.push_back({5.0, 6.0});
  EXPECT_TRUE(outage.enabled());
}

TEST(FaultPlan, ValidateRejectsNonsense) {
  FaultPlan plan;
  plan.drop_probability = 1.5;
  EXPECT_THROW(plan.validate(), CheckError);

  FaultPlan inverted;
  inverted.link_outages.push_back({6.0, 5.0});
  EXPECT_THROW(inverted.validate(), CheckError);

  FaultPlan empty_group;
  empty_group.partitions.push_back({{0.0, 1.0}, {}});
  EXPECT_THROW(empty_group.validate(), CheckError);

  FaultPlan jitter;
  jitter.jitter_min = 2.0;
  jitter.jitter_max = 1.0;
  EXPECT_THROW(jitter.validate(), CheckError);

  // Fate streams are per link; there is no shared-stream mode to ask for.
  FaultPlan shared_stream;
  shared_stream.per_link_streams = false;
  EXPECT_THROW(shared_stream.validate(), CheckError);
}

TEST(FaultyTransport, InertPlanForwardsVerbatim) {
  Fixture fx(3, FaultPlan{});
  fx.faulty.send(0, 1, {1, 2, 3});
  fx.sim.run_all();
  ASSERT_EQ(fx.deliveries(), 1u);
  EXPECT_EQ(fx.inbox.got[0].message, (sim::Payload{1, 2, 3}));
  EXPECT_DOUBLE_EQ(fx.inbox.got[0].time, 1.0);  // inner latency only
  EXPECT_EQ(fx.faulty.messages_sent(), 1u);
  EXPECT_EQ(fx.faulty.messages_delivered(), 1u);
  EXPECT_EQ(fx.faulty.counters().total_faulted(), 0u);
}

TEST(FaultyTransport, EnabledButIdlePlanMatchesBareTransport) {
  // A plan whose only fault is an outage window far in the future is
  // enabled() (so services wrap it), yet until the window opens the
  // wrapper must not disturb delivery times or draw from any RNG the
  // protocol sees.
  FaultPlan plan;
  plan.link_outages.push_back({1e9, 1e9 + 1.0});
  EXPECT_EQ(arrival_times(nullptr), arrival_times(&plan));
}

TEST(FaultyTransport, OfflineSenderStillRefused) {
  FaultPlan plan;
  plan.drop_probability = 1.0;
  Fixture fx(2, plan);
  fx.online[0] = 0;
  EXPECT_FALSE(fx.faulty.send(0, 1, {}));
  fx.sim.run_all();
  EXPECT_EQ(fx.faulty.messages_sent(), 0u);
  EXPECT_EQ(fx.faulty.counters().injected_drops, 0u);
}

TEST(FaultyTransport, FullLossDropsEverything) {
  FaultPlan plan;
  plan.drop_probability = 1.0;
  Fixture fx(2, plan);
  for (int i = 0; i < 50; ++i) fx.faulty.send(0, 1, {});
  fx.sim.run_all();
  EXPECT_EQ(fx.deliveries(), 0u);
  EXPECT_EQ(fx.faulty.messages_sent(), 50u);
  EXPECT_EQ(fx.faulty.messages_delivered(), 0u);
  EXPECT_EQ(fx.faulty.counters().injected_drops, 50u);
  EXPECT_EQ(fx.faulty.messages_dropped(), 50u);
}

/// The LinkTransport invariant messages_dropped() == sent - delivered
/// must survive injected loss and duplication (which adds sends).
/// All receivers stay online here, so every loss is the wrapper's
/// doing and the fault counters explain the dropped total exactly.
TEST(FaultyTransport, DropAccountingInvariantUnderMixedFaults) {
  FaultPlan plan;
  plan.drop_probability = 0.3;
  plan.duplicate_probability = 0.3;
  plan.jitter_max = 0.5;
  Fixture fx(4, plan);
  Rng traffic(99);
  for (int i = 0; i < 300; ++i) {
    const NodeId to = 1 + static_cast<NodeId>(traffic.uniform_u64(3));
    fx.faulty.send(0, to, {});
  }
  fx.sim.run_all();
  const std::uint64_t deliveries = fx.deliveries();

  EXPECT_EQ(fx.faulty.messages_delivered(), deliveries);
  EXPECT_EQ(fx.faulty.messages_dropped(),
            fx.faulty.messages_sent() - fx.faulty.messages_delivered());
  // The wrapper mirrors the inner transport's sends one-to-one
  // (duplicates included) and every drop is attributed to its cause.
  EXPECT_EQ(fx.faulty.messages_sent(), fx.inner.messages_sent());
  const auto& c = fx.faulty.counters();
  EXPECT_EQ(fx.faulty.messages_dropped(), c.injected_drops);
  EXPECT_GT(c.injected_drops, 0u);
  EXPECT_GT(c.duplicates, 0u);
  EXPECT_GT(deliveries, 0u);
}

/// Same invariant when the inner transport is the one dropping:
/// duplicated and delayed copies to an offline receiver die inside
/// the inner transport, and the wrapper's ledger stays consistent.
TEST(FaultyTransport, DropAccountingInvariantWithOfflineReceivers) {
  FaultPlan plan;
  plan.duplicate_probability = 0.5;
  plan.jitter_max = 0.5;
  Fixture fx(3, plan);
  fx.online[2] = 0;  // permanently offline receiver
  Rng traffic(99);
  for (int i = 0; i < 200; ++i) {
    const NodeId to = 1 + static_cast<NodeId>(traffic.uniform_u64(2));
    fx.faulty.send(0, to, {});
  }
  fx.sim.run_all();
  const std::uint64_t deliveries = fx.deliveries();

  EXPECT_EQ(fx.faulty.messages_delivered(), deliveries);
  EXPECT_EQ(fx.faulty.messages_dropped(),
            fx.faulty.messages_sent() - fx.faulty.messages_delivered());
  // No fault drops configured: every loss is an inner
  // (offline-receiver) drop, duplicates included.
  EXPECT_EQ(fx.faulty.counters().injected_drops, 0u);
  EXPECT_EQ(fx.faulty.messages_dropped(), fx.inner.messages_dropped());
  EXPECT_GT(fx.faulty.messages_dropped(), 0u);
  EXPECT_GT(fx.faulty.counters().duplicates, 0u);
  EXPECT_GT(deliveries, 0u);
}

TEST(FaultyTransport, DuplicateDeliversTwice) {
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  Fixture fx(2, plan);
  fx.faulty.send(0, 1, {5});
  fx.sim.run_all();
  EXPECT_EQ(fx.deliveries(5), 2u);
  EXPECT_EQ(fx.faulty.messages_sent(), 2u);  // the copy is on the wire
  EXPECT_EQ(fx.faulty.counters().duplicates, 1u);
}

TEST(FaultyTransport, OutageWindowDropsOnlyInside) {
  FaultPlan plan;
  plan.link_outages.push_back({4.0, 6.0});
  Fixture fx(2, plan);
  fx.ev.at(0, 5.0, [&] { fx.faulty.send(0, 1, {}); });  // inside the window
  fx.ev.at(0, 7.0, [&] { fx.faulty.send(0, 1, {}); });  // after it
  fx.sim.run_all();
  EXPECT_EQ(fx.deliveries(), 1u);
  EXPECT_EQ(fx.faulty.counters().outage_drops, 1u);
}

TEST(FaultyTransport, PartitionBlocksOnlyCrossTraffic) {
  FaultPlan plan;
  plan.partitions.push_back({{0.0, 10.0}, {0, 1}});
  Fixture fx(4, plan);
  constexpr std::uint8_t kCross = 1, kWithin = 2, kLater = 3;
  fx.faulty.send(0, 2, {kCross});   // group -> outside: dropped
  fx.faulty.send(2, 1, {kCross});   // outside -> group: dropped
  fx.faulty.send(0, 1, {kWithin});  // inside the group: flows
  fx.faulty.send(2, 3, {kWithin});  // outside the group: flows
  fx.ev.at(0, 11.0, [&] {           // split healed
    fx.faulty.send(0, 2, {kLater});
  });
  fx.sim.run_all();
  EXPECT_EQ(fx.deliveries(kCross), 0u);
  EXPECT_EQ(fx.deliveries(kWithin), 2u);
  EXPECT_EQ(fx.deliveries(kLater), 1u);
  EXPECT_EQ(fx.faulty.counters().partition_drops, 2u);
}

TEST(FaultyTransport, JitterDelaysDelivery) {
  FaultPlan plan;
  plan.jitter_min = 5.0;
  plan.jitter_max = 5.0;
  Fixture fx(2, plan);
  fx.faulty.send(0, 1, {9});
  fx.sim.run_all();
  ASSERT_EQ(fx.deliveries(9), 1u);
  EXPECT_DOUBLE_EQ(fx.inbox.got[0].time, 6.0);  // 1 inner latency + 5 jitter
  EXPECT_EQ(fx.faulty.counters().delayed, 1u);
  EXPECT_EQ(fx.faulty.messages_delivered(), 1u);
}

TEST(FaultyTransport, ReorderLetsLaterMessagesOvertake) {
  FaultPlan plan;
  plan.reorder_probability = 1.0;
  plan.reorder_min_delay = 3.0;
  plan.reorder_max_delay = 3.0;
  Fixture fx(2, plan);
  // The second message bypasses the plan on a bare transport of the
  // same latency, so it overtakes the held-back first one.
  privacylink::Transport bypass(fx.sim, {.min_latency = 1.0, .max_latency = 1.0},
                                Rng(8), [](NodeId) { return true; }, 2);
  bypass.set_receiver(fx.inbox);
  fx.faulty.send(0, 1, {1});
  fx.ev.at(0, 2.0, [&] { bypass.send(0, 1, {2}); });
  fx.sim.run_all();
  ASSERT_EQ(fx.deliveries(), 2u);
  EXPECT_EQ(fx.inbox.got[0].message, sim::Payload{2});
  EXPECT_EQ(fx.inbox.got[1].message, sim::Payload{1});
}

TEST(FaultyTransport, FaultPatternIsDeterministic) {
  const auto run = [] {
    FaultPlan plan;
    plan.drop_probability = 0.4;
    plan.duplicate_probability = 0.2;
    plan.jitter_max = 1.0;
    plan.seed = 123;
    Fixture fx(3, plan);
    for (int i = 0; i < 100; ++i) fx.faulty.send(0, 1 + (i % 2), {});
    fx.sim.run_all();
    return std::make_pair(fx.inbox.times(),
                          fx.faulty.counters().total_faulted());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(FaultPlan, ValidatesLinkDropOverridesAndCrashes) {
  FaultPlan bad_prob;
  bad_prob.link_drop_overrides.push_back({0, 1, 1.5});
  EXPECT_THROW(bad_prob.validate(), CheckError);

  FaultPlan self_link;
  self_link.link_drop_overrides.push_back({2, 2, 0.5});
  EXPECT_THROW(self_link.validate(), CheckError);

  FaultPlan bad_crash;
  bad_crash.node_crashes.push_back({-1.0, 3, -1.0});
  EXPECT_THROW(bad_crash.validate(), CheckError);

  FaultPlan revive_before_crash;
  revive_before_crash.node_crashes.push_back({5.0, 3, 4.0});
  EXPECT_THROW(revive_before_crash.validate(), CheckError);

  FaultPlan ok;
  ok.link_drop_overrides.push_back({0, 1, 1.0});
  ok.node_crashes.push_back({5.0, 3, 8.0});
  ok.validate();
  EXPECT_TRUE(ok.enabled());           // overrides are transport faults
  EXPECT_TRUE(ok.has_node_crashes());  // crashes are not
  FaultPlan crashes_only;
  crashes_only.node_crashes.push_back({5.0, 3, -1.0});
  EXPECT_FALSE(crashes_only.enabled());
}

/// Directional override: a -> b is dead while b -> a flows — the
/// asymmetric-link case the plan-wide drop probability cannot express.
TEST(FaultyTransport, LinkDropOverrideIsDirectional) {
  FaultPlan plan;
  plan.link_drop_overrides.push_back({0, 1, 1.0});
  Fixture fx(2, plan);
  EXPECT_DOUBLE_EQ(fx.faulty.drop_probability_on(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(fx.faulty.drop_probability_on(1, 0), 0.0);

  constexpr std::uint8_t kForward = 1, kReverse = 2;
  for (int i = 0; i < 25; ++i) {
    fx.faulty.send(0, 1, {kForward});
    fx.faulty.send(1, 0, {kReverse});
  }
  fx.sim.run_all();
  EXPECT_EQ(fx.deliveries(kForward), 0u);
  EXPECT_EQ(fx.deliveries(kReverse), 25u);
  EXPECT_EQ(fx.faulty.counters().injected_drops, 25u);
}

TEST(FaultyTransport, LaterOverrideForSameLinkWins) {
  FaultPlan plan;
  plan.drop_probability = 0.0;
  plan.link_drop_overrides.push_back({0, 1, 1.0});
  plan.link_drop_overrides.push_back({0, 1, 0.0});
  Fixture fx(2, plan);
  EXPECT_DOUBLE_EQ(fx.faulty.drop_probability_on(0, 1), 0.0);
  fx.faulty.send(0, 1, {});
  fx.sim.run_all();
  EXPECT_EQ(fx.deliveries(), 1u);
}

/// A plan with overrides present but zero-fault everywhere must be
/// bit-identical to the bare transport — the zero-fault guarantee
/// extends to the new knobs.
TEST(FaultyTransport, ZeroFaultOverridesKeepBitIdentity) {
  FaultPlan plan;
  plan.link_drop_overrides.push_back({0, 1, 0.0});
  EXPECT_EQ(arrival_times(nullptr), arrival_times(&plan));
}

TEST(FaultyTransport, PerLinkStreamsNeedTheNodeCount) {
  FaultPlan plan;
  plan.drop_probability = 0.5;
  sim::ShardedSimulator sim({.num_actors = 2});
  privacylink::Transport t(sim, {}, Rng(7), [](NodeId) { return true; }, 2);
  EXPECT_THROW(FaultyTransport(sim, t, plan, 0), CheckError);
}

/// Per-link fate streams depend only on a link's own traffic: traffic
/// on OTHER links must not shift a link's fault pattern (the property
/// K-invariance needs).
TEST(FaultyTransport, PerLinkStreamsIsolateLinks) {
  FaultPlan plan;
  plan.drop_probability = 0.4;
  plan.seed = 99;

  const auto deliveries_on_01 = [&plan](bool extra_traffic) {
    Fixture fx(3, plan);
    for (int i = 0; i < 60; ++i) {
      fx.faulty.send(0, 1, {static_cast<std::uint8_t>(i)});
      if (extra_traffic) fx.faulty.send(0, 2, {});
    }
    fx.sim.run_all();
    std::vector<sim::Payload> delivered;
    for (const Inbox::Delivery& d : fx.inbox.got)
      if (d.to == 1) delivered.push_back(d.message);
    return delivered;
  };
  EXPECT_EQ(deliveries_on_01(false), deliveries_on_01(true));
}

TEST(FaultStream, CrashMaterializationIsDeterministicAndSorted) {
  FaultPlan plan;
  plan.seed = 0xABCD;
  plan.node_crashes.push_back({5.0, 8, 12.0});
  plan.node_crashes.push_back({2.0, 4, -1.0});

  const auto a = materialize_node_crashes(plan, 100);
  const auto b = materialize_node_crashes(plan, 100);
  ASSERT_EQ(a.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].revive_at, b[i].revive_at);
    if (i > 0) {
      EXPECT_TRUE(a[i - 1].at < a[i].at ||
                  (a[i - 1].at == a[i].at && a[i - 1].node < a[i].node));
    }
  }
  // Victims within one burst are distinct.
  for (std::size_t i = 1; i < 4; ++i) EXPECT_NE(a[i].node, a[i - 1].node);

  // A burst cannot crash more nodes than exist.
  FaultPlan overfull;
  overfull.node_crashes.push_back({1.0, 10, -1.0});
  EXPECT_THROW(materialize_node_crashes(overfull, 5), CheckError);
}

TEST(FaultInjector, NodeCrashesDriveTheHooks) {
  sim::ShardedSimulator sim({.num_actors = 8});
  std::vector<std::pair<double, graph::NodeId>> crashed, revived;
  FaultInjector::Hooks hooks;
  hooks.fail_node = [&](graph::NodeId v) { crashed.emplace_back(sim.now(), v); };
  hooks.revive_node = [&](graph::NodeId v) {
    revived.emplace_back(sim.now(), v);
  };
  std::vector<NodeCrashEvent> events{{3, 2.0, 6.0}, {7, 4.0, -1.0}};
  FaultInjector injector(sim, hooks, events);
  injector.arm();
  EXPECT_EQ(injector.counters().nodes_crashed, 2u);
  EXPECT_EQ(injector.counters().nodes_revived, 1u);

  sim.run_all();
  ASSERT_EQ(crashed.size(), 2u);
  EXPECT_EQ(crashed[0], std::make_pair(2.0, graph::NodeId{3}));
  EXPECT_EQ(crashed[1], std::make_pair(4.0, graph::NodeId{7}));
  ASSERT_EQ(revived.size(), 1u);
  EXPECT_EQ(revived[0], std::make_pair(6.0, graph::NodeId{3}));
}

TEST(FaultInjector, NodeCrashesRequireTheHooks) {
  sim::ShardedSimulator sim({.num_actors = 2});
  std::vector<NodeCrashEvent> events{{1, 2.0, -1.0}};
  EXPECT_THROW(FaultInjector(sim, {}, events), CheckError);
}

}  // namespace
}  // namespace ppo::fault
