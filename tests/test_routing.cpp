// Random-walk pseudonym routing (§I's routing-layer option).
#include <gtest/gtest.h>

#include "churn/churn_model.hpp"
#include "graph/generators.hpp"
#include "routing/random_walk.hpp"

namespace ppo::routing {
namespace {

struct Fixture {
  graph::Graph trust;
  churn::ExponentialChurn model;
  sim::ShardedSimulator sim;
  overlay::ShardedOverlayService service;

  explicit Fixture(std::size_t n, double alpha = 1.0, std::uint64_t seed = 3)
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
                seed + 1) {
    service.start();
  }

  privacylink::PseudonymValue pseudonym_of(graph::NodeId v) {
    const auto own = service.node(v).own_pseudonym();
    EXPECT_TRUE(own.has_value());
    return own ? own->value : 0;
  }
};

TEST(RandomWalk, DeliversOnConvergedOverlay) {
  Fixture fx(60);
  fx.sim.run_until(50.0);
  Rng rng(7);
  std::size_t delivered = 0;
  for (graph::NodeId target = 1; target <= 20; ++target) {
    const auto result = route_to_pseudonym(
        fx.service, 0, fx.pseudonym_of(target), {.ttl = 32, .walkers = 2},
        rng);
    delivered += result.delivered;
    if (result.delivered) {
      EXPECT_LE(result.hops, 33u);
      EXPECT_GT(result.latency, 0.0);
    }
  }
  // Each pseudonym is held by ~S_avg=10 of 60 nodes: short walks
  // nearly always find a holder.
  EXPECT_GE(delivered, 18u);
}

TEST(RandomWalk, SelfDeliveryIsZeroHops) {
  Fixture fx(30);
  fx.sim.run_until(20.0);
  Rng rng(9);
  const auto result = route_to_pseudonym(
      fx.service, 5, fx.pseudonym_of(5), {.ttl = 8}, rng);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.hops, 0u);
  EXPECT_EQ(result.messages, 0u);
}

TEST(RandomWalk, TtlBoundsCost) {
  Fixture fx(60);
  fx.sim.run_until(40.0);
  Rng rng(11);
  WalkOptions options;
  options.ttl = 3;
  options.walkers = 4;
  const auto result =
      route_to_pseudonym(fx.service, 0, fx.pseudonym_of(40), options, rng);
  // Each walker takes at most ttl steps + 1 delivery hop.
  EXPECT_LE(result.messages, 4u * (3u + 1u));
}

TEST(RandomWalk, MoreWalkersRaiseSuccess) {
  Fixture fx(80, 1.0, 13);
  fx.sim.run_until(50.0);
  Rng r1(21), r2(21);
  std::size_t one = 0, many = 0;
  for (graph::NodeId target = 1; target <= 25; ++target) {
    one += route_to_pseudonym(fx.service, 0, fx.pseudonym_of(target),
                              {.ttl = 2, .walkers = 1}, r1)
               .delivered;
    many += route_to_pseudonym(fx.service, 0, fx.pseudonym_of(target),
                               {.ttl = 2, .walkers = 8}, r2)
                .delivered;
  }
  EXPECT_GE(many, one);
  EXPECT_GT(many, 12u);  // 8 walkers x 2 hops usually find a holder
}

TEST(RandomWalk, OfflineOwnerCannotBeReached) {
  Fixture fx(40);
  fx.sim.run_until(30.0);
  const auto target = fx.pseudonym_of(7);
  fx.service.churn_driver().fail_permanently(7);
  Rng rng(15);
  const auto result =
      route_to_pseudonym(fx.service, 0, target, {.ttl = 32}, rng);
  EXPECT_FALSE(result.delivered);
}

TEST(RandomWalk, UnknownPseudonymNeverDelivers) {
  Fixture fx(30);
  fx.sim.run_until(20.0);
  Rng rng(17);
  const auto result =
      route_to_pseudonym(fx.service, 0, 0xDEAD'BEEF'0000'1111ull,
                         {.ttl = 16, .walkers = 4}, rng);
  EXPECT_FALSE(result.delivered);
}

TEST(RandomWalk, ArgumentValidation) {
  Fixture fx(20);
  fx.sim.run_until(5.0);
  Rng rng(19);
  EXPECT_THROW(route_to_pseudonym(fx.service, 99, 1, {}, rng), CheckError);
  EXPECT_THROW(
      route_to_pseudonym(fx.service, 0, 1, {.ttl = 0}, rng), CheckError);
}

}  // namespace
}  // namespace ppo::routing
