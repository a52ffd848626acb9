// Group-chat application layer: flooding delivery, anti-entropy
// catch-up after offline periods, eventual delivery under churn.
#include <gtest/gtest.h>

#include "apps/groupchat.hpp"
#include "churn/churn_model.hpp"
#include "graph/generators.hpp"

namespace ppo::apps {
namespace {

struct Fixture {
  graph::Graph trust;
  churn::ExponentialChurn model;
  sim::ShardedSimulator sim;
  overlay::ShardedOverlayService service;
  GroupChat chat;

  explicit Fixture(std::size_t n, double alpha, std::uint64_t seed = 3)
      : trust([&] {
          Rng g(seed);
          return graph::barabasi_albert(n, 2, g);
        }()),
        model(churn::ExponentialChurn::from_availability(alpha, 30.0)),
        sim(overlay::simulator_options({}, n)),
        service(sim, trust, model,
                {.params = {.cache_size = 60,
                            .shuffle_length = 8,
                            .target_links = 12}},
                seed + 1),
        chat(sim, service, {}, Rng(seed + 2)) {
    service.start();
    chat.start();
  }
};

TEST(GroupChat, FloodReachesAllOnlineMembersQuickly) {
  Fixture fx(50, 1.0);
  fx.sim.run_until(40.0);  // overlay converged
  const auto [author, seq] = fx.chat.publish(0, "hello group");
  fx.sim.run_until(45.0);
  EXPECT_DOUBLE_EQ(fx.chat.replication(author, seq), 1.0);
  EXPECT_LT(fx.chat.delivery_latency().max(), 2.0);
}

TEST(GroupChat, SequenceNumbersPerAuthor) {
  Fixture fx(20, 1.0);
  fx.sim.run_until(10.0);
  EXPECT_EQ(fx.chat.publish(3, "a").second, 1u);
  EXPECT_EQ(fx.chat.publish(3, "b").second, 2u);
  EXPECT_EQ(fx.chat.publish(4, "c").second, 1u);
  EXPECT_EQ(fx.chat.published_count(3), 2u);
}

TEST(GroupChat, PublishRequiresOnlineAuthor) {
  Fixture fx(20, 1.0);
  fx.sim.run_until(5.0);
  fx.service.churn_driver().fail_permanently(7);
  EXPECT_THROW(fx.chat.publish(7, "ghost"), CheckError);
}

TEST(GroupChat, OfflineMembersCatchUpViaAntiEntropy) {
  Fixture fx(40, 1.0, 11);
  fx.sim.run_until(30.0);

  // Take node 5 offline by force and publish while it is away.
  fx.service.churn_driver().fail_permanently(5);
  const auto [author, seq] = fx.chat.publish(0, "missed this?");
  fx.sim.run_until(35.0);
  EXPECT_FALSE(fx.chat.has_post(5, author, seq));

  // On rejoin, anti-entropy (its own or a peer answering its vector)
  // back-fills the missed post.
  fx.service.churn_driver().revive(5);
  fx.sim.run_until(50.0);
  EXPECT_TRUE(fx.chat.has_post(5, author, seq));
}

TEST(GroupChat, EventualDeliveryUnderChurn) {
  Fixture fx(60, 0.6, 17);
  fx.sim.run_until(60.0);

  // Publish a burst from random online authors.
  std::vector<std::pair<graph::NodeId, std::uint32_t>> posts;
  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    graph::NodeId author;
    do {
      author = static_cast<graph::NodeId>(rng.uniform_u64(60));
    } while (!fx.service.is_online(author));
    posts.push_back(fx.chat.publish(author, "post " + std::to_string(i)));
    fx.sim.run_until(fx.sim.now() + 3.0);
  }

  // After enough time for several churn cycles + anti-entropy, every
  // member (online or currently offline — state is durable) holds
  // every post.
  fx.sim.run_until(fx.sim.now() + 200.0);
  for (const auto& [author, seq] : posts)
    EXPECT_GT(fx.chat.replication(author, seq), 0.95)
        << "post (" << author << "," << seq << ")";
}

TEST(GroupChat, AntiEntropyOnlyRunsWhenOnline) {
  Fixture fx(20, 1.0, 19);
  for (graph::NodeId v = 0; v < 20; ++v)
    fx.service.churn_driver().fail_permanently(v);
  const auto before = fx.chat.anti_entropy_exchanges();
  fx.sim.run_until(20.0);
  EXPECT_EQ(fx.chat.anti_entropy_exchanges(), before);
}

TEST(GroupChat, StartTwiceThrows) {
  Fixture fx(20, 1.0);
  EXPECT_THROW(fx.chat.start(), CheckError);
}

}  // namespace
}  // namespace ppo::apps
