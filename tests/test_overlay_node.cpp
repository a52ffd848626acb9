// OverlayNode protocol logic against a mock environment: pseudonym
// lifecycle, shuffle composition, merge behaviour, slot budgeting.
#include <gtest/gtest.h>

#include <map>

#include "overlay/node.hpp"

namespace ppo::overlay {
namespace {

using privacylink::NodeId;

/// Deterministic in-memory environment: immediate delivery hooks,
/// manual clock, scripted pseudonym minting.
class MockEnv : public NodeEnvironment {
 public:
  sim::Time clock = 0.0;
  std::map<PseudonymValue, NodeId> registry;
  PseudonymValue next_value = 1000;

  struct Sent {
    NodeId from, to;
    std::vector<PseudonymRecord> set;
    bool is_request;
  };
  std::vector<Sent> outbox;
  struct Alarm {
    double at;
    NodeTimer timer;
    std::uint64_t key;
  };
  std::vector<Alarm> alarms;

  sim::Time now() const override { return clock; }
  bool is_online(NodeId) const override { return true; }

  PseudonymRecord mint_pseudonym(NodeId owner, double lifetime) override {
    const PseudonymValue value = next_value++;
    registry[value] = owner;
    return PseudonymRecord{value, clock + lifetime};
  }

  std::optional<NodeId> resolve(PseudonymValue value) override {
    const auto it = registry.find(value);
    if (it == registry.end()) return std::nullopt;
    return it->second;
  }

  void send_shuffle_request(NodeId from, NodeId to,
                            std::vector<PseudonymRecord> set) override {
    outbox.push_back({from, to, std::move(set), true});
  }
  void send_shuffle_response(NodeId from, NodeId to,
                             std::vector<PseudonymRecord> set) override {
    outbox.push_back({from, to, std::move(set), false});
  }
  void schedule_timer(NodeId, double delay, NodeTimer timer,
                      std::uint64_t key) override {
    alarms.push_back({clock + delay, timer, key});
  }

  /// Fires at `node` every alarm due at or before the current clock.
  void fire_due_alarms(OverlayNode& node) {
    for (std::size_t i = 0; i < alarms.size();) {
      if (alarms[i].at <= clock) {
        const Alarm alarm = alarms[i];
        alarms.erase(alarms.begin() + static_cast<std::ptrdiff_t>(i));
        node.fire_timer(alarm.timer, alarm.key);
      } else {
        ++i;
      }
    }
  }
};

OverlayParams small_params() {
  OverlayParams p;
  p.cache_size = 20;
  p.shuffle_length = 5;
  p.target_links = 10;
  p.pseudonym_lifetime = 30.0;
  return p;
}

TEST(OverlayNode, SlotBudgetShrinksWithTrustDegree) {
  MockEnv env;
  const OverlayParams p = small_params();  // target 10
  OverlayNode leaf(0, p, {1, 2}, env, Rng(1));
  OverlayNode hub(1, p, {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, env, Rng(2));
  EXPECT_EQ(leaf.slot_capacity(), 8u);   // 10 - 2
  EXPECT_EQ(hub.slot_capacity(), 0u);    // trust degree >= target
}

TEST(OverlayNode, MintsPseudonymWhenFirstOnline) {
  MockEnv env;
  const OverlayParams p = small_params();
  OverlayNode node(0, p, {1}, env, Rng(3));
  EXPECT_FALSE(node.own_pseudonym().has_value());
  node.handle_online();
  ASSERT_TRUE(node.own_pseudonym().has_value());
  EXPECT_DOUBLE_EQ(node.own_pseudonym()->expiry, 30.0);
  EXPECT_EQ(env.registry.at(node.own_pseudonym()->value), 0u);
}

TEST(OverlayNode, RenewsExpiredPseudonymViaAlarm) {
  MockEnv env;
  const OverlayParams p = small_params();
  OverlayNode node(0, p, {1}, env, Rng(4));
  node.handle_online();
  const PseudonymValue first = node.own_pseudonym()->value;

  env.clock = 30.1;
  env.fire_due_alarms(node);
  ASSERT_TRUE(node.own_pseudonym().has_value());
  EXPECT_NE(node.own_pseudonym()->value, first);
  EXPECT_DOUBLE_EQ(node.own_pseudonym()->expiry, 60.1);
}

TEST(OverlayNode, OfflineNodeRenewsOnRejoinNotViaAlarm) {
  MockEnv env;
  const OverlayParams p = small_params();
  OverlayNode node(0, p, {1}, env, Rng(5));
  node.handle_online();
  node.handle_offline();

  env.clock = 50.0;
  env.fire_due_alarms(node);  // alarm fires while offline: no mint
  EXPECT_FALSE(node.own_pseudonym().has_value());

  node.handle_online();  // rejoin re-mints
  ASSERT_TRUE(node.own_pseudonym().has_value());
  EXPECT_DOUBLE_EQ(node.own_pseudonym()->expiry, 80.0);
}

TEST(OverlayNode, ShuffleTickSendsOwnPseudonymToTrustedPeer) {
  MockEnv env;
  const OverlayParams p = small_params();
  OverlayNode node(0, p, {7}, env, Rng(6));
  node.handle_online();
  node.shuffle_tick();

  ASSERT_EQ(env.outbox.size(), 1u);
  const auto& msg = env.outbox[0];
  EXPECT_TRUE(msg.is_request);
  EXPECT_EQ(msg.from, 0u);
  EXPECT_EQ(msg.to, 7u);  // only link available
  ASSERT_EQ(msg.set.size(), 1u);  // empty cache: own pseudonym only
  EXPECT_EQ(msg.set[0].value, node.own_pseudonym()->value);
  EXPECT_EQ(node.counters().requests_sent, 1u);
}

TEST(OverlayNode, OfflineNodeDoesNotTick) {
  MockEnv env;
  OverlayNode node(0, small_params(), {7}, env, Rng(7));
  node.shuffle_tick();
  EXPECT_TRUE(env.outbox.empty());
  EXPECT_EQ(node.counters().online_ticks, 0u);
}

TEST(OverlayNode, RequestTriggersResponseAndMerge) {
  MockEnv env;
  const OverlayParams p = small_params();
  OverlayNode node(0, p, {7}, env, Rng(8));
  node.handle_online();

  // Peer 7 sends its pseudonym (minted so resolution works).
  const PseudonymRecord peer = env.mint_pseudonym(7, 30.0);
  node.handle_shuffle_request(7, {peer});

  ASSERT_EQ(env.outbox.size(), 1u);
  EXPECT_FALSE(env.outbox[0].is_request);
  EXPECT_EQ(env.outbox[0].to, 7u);
  EXPECT_EQ(node.counters().responses_sent, 1u);

  // The received pseudonym entered cache and sampler.
  EXPECT_TRUE(node.cache().contains(peer.value));
  const auto links = node.pseudonym_links();
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0], peer.value);
  EXPECT_EQ(node.out_degree(), 2u);  // 1 trusted + 1 pseudonym
}

TEST(OverlayNode, OwnAndSelfResolvingPseudonymsNeverSampled) {
  MockEnv env;
  const OverlayParams p = small_params();
  OverlayNode node(0, p, {7}, env, Rng(9));
  node.handle_online();
  const PseudonymRecord own = *node.own_pseudonym();

  // Roll the node's pseudonym over, then replay its PREVIOUS value
  // with a forged later expiry: the node must recognize its own past
  // address and refuse a self link.
  env.clock = 30.1;
  env.fire_due_alarms(node);
  const PseudonymRecord current = *node.own_pseudonym();
  ASSERT_NE(current.value, own.value);
  const PseudonymRecord forged_old{own.value, env.clock + 100.0};

  node.handle_shuffle_request(7, {current, forged_old});
  EXPECT_TRUE(node.pseudonym_links().empty());
  EXPECT_FALSE(node.cache().contains(current.value));
  // The forged copy of the old value may sit in the cache (it is not
  // the CURRENT own value), but must never become a link.
}

TEST(OverlayNode, ResponseMergesWithoutReplying) {
  MockEnv env;
  const OverlayParams p = small_params();
  OverlayNode node(0, p, {7}, env, Rng(10));
  node.handle_online();
  node.shuffle_tick();
  env.outbox.clear();

  const PseudonymRecord peer = env.mint_pseudonym(9, 30.0);
  node.handle_shuffle_response({peer});
  EXPECT_TRUE(env.outbox.empty());
  EXPECT_EQ(node.counters().shuffles_completed, 1u);
  EXPECT_TRUE(node.cache().contains(peer.value));
}

TEST(OverlayNode, ExpiredLinksVanishFromLinkSet) {
  MockEnv env;
  const OverlayParams p = small_params();
  OverlayNode node(0, p, {7}, env, Rng(11));
  node.handle_online();
  const PseudonymRecord peer = env.mint_pseudonym(9, 10.0);
  node.handle_shuffle_request(7, {peer});
  EXPECT_EQ(node.pseudonym_links().size(), 1u);

  env.clock = 10.5;
  EXPECT_TRUE(node.pseudonym_links().empty());
  EXPECT_EQ(node.out_degree(), 1u);
}

TEST(OverlayNode, ShuffleSetBoundedByEll) {
  MockEnv env;
  OverlayParams p = small_params();
  p.shuffle_length = 3;
  OverlayNode node(0, p, {7}, env, Rng(12));
  node.handle_online();

  std::vector<PseudonymRecord> flood;
  for (int i = 0; i < 10; ++i) flood.push_back(env.mint_pseudonym(100 + i, 30.0));
  node.handle_shuffle_request(7, flood);
  env.outbox.clear();

  node.shuffle_tick();
  ASSERT_EQ(env.outbox.size(), 1u);
  EXPECT_LE(env.outbox[0].set.size(), 3u);  // own + up to l-1 = 2
}

TEST(OverlayNode, AdaptiveLifetimeTracksOfflineDurations) {
  MockEnv env;
  OverlayParams p = small_params();
  p.adaptive_lifetime = true;
  p.adaptive_lifetime_factor = 3.0;
  p.adaptive_min_lifetime = 1.0;
  p.adaptive_max_lifetime = 1000.0;
  p.pseudonym_lifetime = 30.0;  // seeds the EWMA at 10
  OverlayNode node(0, p, {7}, env, Rng(13));

  node.handle_online();
  const double first_lifetime = node.own_pseudonym()->expiry - env.clock;
  EXPECT_NEAR(first_lifetime, 30.0, 1e-9);

  // One long offline period (100) shifts the EWMA: 0.7*10 + 0.3*100 = 37.
  // Rejoining past the old expiry re-mints with the adapted lifetime.
  node.handle_offline();
  env.clock = 100.0;
  node.handle_online();
  ASSERT_TRUE(node.own_pseudonym().has_value());
  const double adapted = node.own_pseudonym()->expiry - env.clock;
  EXPECT_NEAR(adapted, 3.0 * 37.0, 1e-6);
}

}  // namespace
}  // namespace ppo::overlay
