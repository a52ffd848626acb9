// Sharded simulation core: canonical cross-shard ordering, the
// lookahead contract, external scheduling rules, window-boundary
// semantics, exceptions from the caller's shard, and K-invariance of a
// randomized event storm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim_closures.hpp"

namespace ppo::sim {
namespace {

ShardedSimulator::Options options(std::size_t shards, std::size_t actors,
                                  double lookahead = 1.0) {
  ShardedSimulator::Options o;
  o.shards = shards;
  o.num_actors = actors;
  o.lookahead = lookahead;
  return o;
}

TEST(ShardedSim, ValidatesOptions) {
  EXPECT_THROW(ShardedSimulator(options(0, 4)), CheckError);
  EXPECT_THROW(ShardedSimulator(options(2, 0)), CheckError);
  EXPECT_THROW(ShardedSimulator(options(2, 4, 0.0)), CheckError);
}

TEST(ShardedSim, ShardOfIsStableAndInRange) {
  for (ActorId a = 0; a < 64; ++a) {
    const std::size_t s = ShardedSimulator::shard_of(a, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, ShardedSimulator::shard_of(a, 4));  // stable
  }
  EXPECT_EQ(ShardedSimulator::shard_of(17, 1), 0u);
}

TEST(ShardedSim, RejectsExternalScheduleWithoutActor) {
  ShardedSimulator sim(options(2, 8));
  Closures ev(sim);
  EXPECT_THROW(ev.after(1.0, [] {}), CheckError);
  // With an explicit actor the external path works.
  bool ran = false;
  ev.at(3, 0.5, [&ran] { ran = true; });
  sim.run_until(1.0);
  EXPECT_TRUE(ran);
}

// All origins (spread over 4 shards) send to ONE target at the same
// instant; the target's shard must deliver them in canonical (time,
// origin, seq) order no matter which worker produced them.
TEST(ShardedSim, MailboxDrainRealizesCanonicalOrder) {
  const std::size_t n = 16;
  ShardedSimulator sim(options(4, n));
  Closures ev(sim);
  std::vector<std::pair<ActorId, int>> order;

  for (ActorId v = 0; v < n; ++v) {
    ev.at(v, 0.25, [&ev, &order, v] {
      // Two messages per origin, equal delivery time: within an
      // origin the sequence number breaks the tie.
      ev.at(0, 1.5, [&order, v] { order.emplace_back(v, 0); });
      ev.at(0, 1.5, [&order, v] { order.emplace_back(v, 1); });
    });
  }
  sim.run_until(3.0);

  ASSERT_EQ(order.size(), 2 * n);
  for (ActorId v = 0; v < n; ++v) {
    EXPECT_EQ(order[2 * v], std::make_pair(v, 0));
    EXPECT_EQ(order[2 * v + 1], std::make_pair(v, 1));
  }
}

TEST(ShardedSim, CrossShardSendInsideWindowViolatesLookahead) {
  const std::size_t n = 8;
  ShardedSimulator sim(options(2, n));
  Closures ev(sim);
  // Find a pair of actors on different shards.
  ActorId src = 0, dst = 0;
  for (ActorId v = 1; v < n; ++v) {
    if (sim.shard_of(v) != sim.shard_of(src)) {
      dst = v;
      break;
    }
  }
  ASSERT_NE(sim.shard_of(src), sim.shard_of(dst));

  ev.at(src, 0.25, [&ev, dst] {
    // Delivery inside the current window [0, 1): forbidden.
    ev.at(dst, 0.5, [] {});
  });
  EXPECT_THROW(sim.run_until(1.0), CheckError);
}

TEST(ShardedSim, SameShardSendInsideWindowIsAllowed) {
  ShardedSimulator sim(options(1, 4));
  Closures ev(sim);
  std::vector<double> times;
  ev.at(2, 0.25, [&sim, &ev, &times] {
    times.push_back(sim.now());
    ev.at(2, 0.5, [&sim, &times] { times.push_back(sim.now()); });
  });
  sim.run_until(1.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 0.25);
  EXPECT_DOUBLE_EQ(times[1], 0.5);
}

// run_until(end) is exclusive of events AT end — they belong to the
// next window.
TEST(ShardedSim, RunUntilIsExclusiveOfEnd) {
  ShardedSimulator sim(options(1, 2));
  Closures ev(sim);
  bool ran = false;
  ev.at(0, 2.0, [&ran] { ran = true; });
  sim.run_until(2.0);
  EXPECT_FALSE(ran);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(3.0);
  EXPECT_TRUE(ran);
}

TEST(ShardedSim, BarrierHookFiresOncePerWindow) {
  ShardedSimulator sim(options(2, 4, 0.5));
  std::size_t barriers = 0;
  sim.set_barrier_hook([&barriers] { ++barriers; });
  sim.run_until(2.0);  // four windows of 0.5
  EXPECT_EQ(barriers, 4u);
}

// Shard 0 runs on the caller's thread. When one of its events throws,
// run_until must still wait out the other shards' share of the window
// before the exception leaves it, and restore the caller's context.
TEST(ShardedSim, ShardZeroExceptionWaitsForEveryShard) {
  const std::size_t n = 32;
  ShardedSimulator sim(options(4, n));
  Closures ev(sim);
  ActorId thrower = n;
  std::size_t others = 0;
  std::atomic<std::size_t> ran{0};
  std::atomic<bool> next_window{false};
  for (ActorId v = 0; v < n; ++v) {
    if (sim.shard_of(v) == 0) {
      if (thrower == n) thrower = v;
      continue;
    }
    ++others;
    ev.at(v, 0.5, [&ran] {
      // Slow enough that a run_until leaving early would see it unfinished.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ran.fetch_add(1);
    });
    ev.at(v, 1.5, [&next_window] { next_window = true; });
  }
  ASSERT_LT(thrower, n);
  ASSERT_GT(others, 0u);
  ev.at(thrower, 0.25, [] { throw std::runtime_error("boom"); });

  EXPECT_THROW(sim.run_until(3.0), std::runtime_error);
  EXPECT_EQ(ran.load(), others);
  EXPECT_FALSE(next_window.load());  // nothing past the failed window
  EXPECT_EQ(sim.current_shard(), ShardedSimulator::kNoShard);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

// A randomized event storm where every actor's behaviour depends only
// on its own node-keyed RNG must produce the SAME per-actor trace and
// the same event count for K = 1 and K = 4.
struct StormTrace {
  std::vector<std::vector<std::pair<double, std::uint64_t>>> per_actor;
  std::uint64_t events = 0;
};

StormTrace run_storm(std::size_t shards) {
  const std::size_t n = 32;
  const double lookahead = 0.5;
  ShardedSimulator sim(options(shards, n, lookahead));
  Closures ev(sim);
  StormTrace trace;
  trace.per_actor.resize(n);
  std::vector<Rng> rngs;
  rngs.reserve(n);
  for (ActorId v = 0; v < n; ++v) rngs.push_back(Rng(derive_seed(99, v)));

  // Each event records at its actor, then fans out to two targets
  // derived from the ACTOR's own stream at times beyond the lookahead.
  struct Storm {
    ShardedSimulator& sim;
    Closures& ev;
    StormTrace& trace;
    std::vector<Rng>& rngs;

    void fire(ActorId v, std::uint64_t tag, int depth) {
      trace.per_actor[v].emplace_back(sim.now(), tag);
      if (depth <= 0) return;
      Rng& rng = rngs[v];
      for (int k = 0; k < 2; ++k) {
        const auto target =
            static_cast<ActorId>(rng.uniform_u64(trace.per_actor.size()));
        const double delay = 0.5 + rng.uniform_double(0.0, 1.5);
        const std::uint64_t next_tag = rng.next_u64();
        ev.at(target, sim.now() + delay, [this, target, next_tag, depth] {
          fire(target, next_tag, depth - 1);
        });
      }
    }
  } storm{sim, ev, trace, rngs};

  for (ActorId v = 0; v < n; ++v)
    ev.at(v, 0.1 + 0.01 * static_cast<double>(v),
          [&storm, v] { storm.fire(v, v, 5); });
  sim.run_until(12.0);
  trace.events = sim.events_executed();
  return trace;
}

TEST(ShardedSim, EventStormIsShardCountInvariant) {
  const StormTrace serial = run_storm(1);
  const StormTrace sharded = run_storm(4);
  EXPECT_EQ(serial.events, sharded.events);
  ASSERT_EQ(serial.per_actor.size(), sharded.per_actor.size());
  for (std::size_t v = 0; v < serial.per_actor.size(); ++v)
    EXPECT_EQ(serial.per_actor[v], sharded.per_actor[v]) << "actor " << v;
  // The storm actually did something.
  std::size_t total = 0;
  for (const auto& t : serial.per_actor) total += t.size();
  EXPECT_GT(total, 100u);
}

// run_all() runs windows until nothing is pending, at every K: a
// relay of events that schedule events drains completely and in the
// same order, and an endless chain exhausts the event budget.
TEST(ShardedSim, RunAllDrainsToQuiescence) {
  constexpr ActorId kActors = 8;
  const auto drain = [](std::size_t shards) {
    ShardedSimulator sim(options(shards, kActors));
    Closures ev(sim);
    std::vector<std::vector<double>> fired(kActors);
    // Each actor hands a countdown to its neighbour, more than one
    // lookahead ahead, so the relay crosses shards.
    std::function<void(ActorId, int)> hop = [&](ActorId v, int left) {
      fired[v].push_back(sim.now());
      if (left == 0) return;
      const ActorId next = (v + 1) % kActors;
      ev.at(next, sim.now() + 1.25,
            [&hop, next, left] { hop(next, left - 1); });
    };
    for (ActorId v = 0; v < kActors; ++v)
      ev.at(v, 0.5, [&hop, v] { hop(v, 20); });
    EXPECT_EQ(sim.run_all(), kActors * 21u);
    EXPECT_TRUE(sim.idle());
    EXPECT_GE(sim.now(), 0.5 + 20 * 1.25);
    return fired;
  };
  const auto serial = drain(1);
  EXPECT_EQ(serial[3].size(), 21u);
  EXPECT_EQ(drain(2), serial);

  for (const std::size_t shards : {1u, 2u}) {
    ShardedSimulator sim(options(shards, 4));
    Closures ev(sim);
    std::function<void()> forever = [&] { ev.after(1.0, forever); };
    ev.at(1, 0.0, forever);
    EXPECT_THROW(sim.run_all(100), CheckError) << "K=" << shards;
    EXPECT_GE(sim.events_executed(), 100u);
  }
}

}  // namespace
}  // namespace ppo::sim
