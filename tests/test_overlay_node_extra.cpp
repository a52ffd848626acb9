// Additional OverlayNode behaviours: slot floors, rejoin shuffles,
// cache injection instrumentation, naive-sampling offer semantics.
#include <gtest/gtest.h>

#include <map>

#include "overlay/node.hpp"

namespace ppo::overlay {
namespace {

using privacylink::NodeId;

/// Minimal environment: same shape as the one in test_overlay_node.
class Env : public NodeEnvironment {
 public:
  sim::Time clock = 0.0;
  std::map<PseudonymValue, NodeId> registry;
  PseudonymValue next_value = 1;
  std::size_t requests = 0, responses = 0;

  sim::Time now() const override { return clock; }
  bool is_online(NodeId) const override { return true; }
  PseudonymRecord mint_pseudonym(NodeId owner, double lifetime) override {
    // Spread the values across the 64-bit space like real random
    // pseudonyms — sequential small integers would all be "closest"
    // to nothing and degenerate the sampler's closeness rule.
    const PseudonymValue value = next_value++ * 0x9E3779B97F4A7C15ull;
    registry[value] = owner;
    return PseudonymRecord{value, clock + lifetime};
  }
  std::optional<NodeId> resolve(PseudonymValue value) override {
    const auto it = registry.find(value);
    return it == registry.end() ? std::nullopt
                                : std::optional<NodeId>(it->second);
  }
  void send_shuffle_request(NodeId, NodeId,
                            std::vector<PseudonymRecord>) override {
    ++requests;
  }
  void send_shuffle_response(NodeId, NodeId,
                             std::vector<PseudonymRecord>) override {
    ++responses;
  }
  void schedule_timer(NodeId, double, NodeTimer, std::uint64_t) override {}
};

OverlayParams params() {
  OverlayParams p;
  p.cache_size = 30;
  p.shuffle_length = 6;
  p.target_links = 8;
  p.pseudonym_lifetime = 50.0;
  return p;
}

TEST(OverlayNodeExtra, MinSlotsFloorApplies) {
  Env env;
  OverlayParams p = params();
  p.min_slots = 3;
  OverlayNode hub(0, p, {1, 2, 3, 4, 5, 6, 7, 8, 9}, env, Rng(1));
  EXPECT_EQ(hub.slot_capacity(), 3u);  // floor, not 0
}

TEST(OverlayNodeExtra, RejoinTriggersImmediateShuffle) {
  Env env;
  OverlayParams p = params();
  p.shuffle_on_rejoin = true;
  OverlayNode node(0, p, {1}, env, Rng(2));
  node.handle_online();            // initial start: no burst shuffle
  EXPECT_EQ(env.requests, 0u);
  node.handle_offline();
  env.clock = 10.0;
  node.handle_online();            // rejoin: immediate shuffle
  EXPECT_EQ(env.requests, 1u);
  EXPECT_EQ(node.counters().online_ticks, 1u);
}

TEST(OverlayNodeExtra, RejoinShuffleCanBeDisabled) {
  Env env;
  OverlayParams p = params();
  p.shuffle_on_rejoin = false;
  OverlayNode node(0, p, {1}, env, Rng(3));
  node.handle_online();
  node.handle_offline();
  node.handle_online();
  EXPECT_EQ(env.requests, 0u);
}

TEST(OverlayNodeExtra, InjectedRecordEntersCacheOnly) {
  Env env;
  OverlayNode node(0, params(), {1}, env, Rng(4));
  node.handle_online();
  const PseudonymRecord marker = env.mint_pseudonym(5, 20.0);
  node.inject_cache_record(marker);
  EXPECT_TRUE(node.cache().contains(marker.value));
  // Injection models a cache plant, not a sampled link.
  EXPECT_TRUE(node.pseudonym_links().empty());
}

TEST(OverlayNodeExtra, NoLinksNoShuffle) {
  Env env;
  OverlayNode loner(0, params(), {}, env, Rng(5));
  loner.handle_online();
  loner.shuffle_tick();
  // No trusted links and empty sampler: nothing to exchange with...
  EXPECT_EQ(env.requests, 0u);
  // ...but the tick still counts as an online period for Fig. 6.
  EXPECT_EQ(loner.counters().online_ticks, 1u);
}

TEST(OverlayNodeExtra, ResponsesCountSeparatelyFromRequests) {
  Env env;
  OverlayNode node(0, params(), {1}, env, Rng(6));
  node.handle_online();
  node.handle_shuffle_request(1, {env.mint_pseudonym(9, 20.0)});
  node.handle_shuffle_request(1, {env.mint_pseudonym(8, 20.0)});
  EXPECT_EQ(env.responses, 2u);
  EXPECT_EQ(node.counters().responses_sent, 2u);
  EXPECT_EQ(node.counters().requests_sent, 0u);
  EXPECT_EQ(node.counters().messages_sent(), 2u);
}

TEST(OverlayNodeExtra, OfflineNodeIgnoresTraffic) {
  Env env;
  OverlayNode node(0, params(), {1}, env, Rng(7));
  node.handle_online();
  node.handle_offline();
  node.handle_shuffle_request(1, {env.mint_pseudonym(9, 20.0)});
  node.handle_shuffle_response({env.mint_pseudonym(8, 20.0)});
  EXPECT_EQ(env.responses, 0u);
  EXPECT_EQ(node.cache().size(), 0u);
}

TEST(OverlayNodeExtra, MaxOutDegreeTracked) {
  Env env;
  OverlayNode node(0, params(), {1, 2}, env, Rng(8));
  node.handle_online();
  std::vector<PseudonymRecord> batch;
  for (NodeId peer = 10; peer < 30; ++peer)
    batch.push_back(env.mint_pseudonym(peer, 40.0));
  node.handle_shuffle_request(1, batch);
  node.shuffle_tick();
  // trust degree 2 + up to 6 slots (target 8 - 2); the slots hold the
  // closest of 20 spread values per reference, occasionally sharing a
  // winner.
  EXPECT_EQ(node.slot_capacity(), 6u);
  EXPECT_GE(node.counters().max_out_degree, 6u);
  EXPECT_LE(node.counters().max_out_degree, 8u);
}

}  // namespace
}  // namespace ppo::overlay
