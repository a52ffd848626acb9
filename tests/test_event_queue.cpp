// EventQueue (the sharded backend's per-shard queue) against a
// std::priority_queue reference over the same canonical (time,
// origin, seq) order: random push/pop interleavings with heavy key
// ties, restore-style pushes carrying old sequence numbers, and
// payload integrity across slab slot reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace ppo::sim {
namespace {

struct RefEntry {
  Time time;
  ActorId origin;
  std::uint64_t seq;
  ActorId target;
  int id;
};

struct RefLater {
  bool operator()(const RefEntry& a, const RefEntry& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.origin != b.origin) return a.origin > b.origin;
    return a.seq > b.seq;
  }
};

using RefQueue = std::priority_queue<RefEntry, std::vector<RefEntry>, RefLater>;

/// An event whose body and payload name its id.
Event make_event(Time t, ActorId origin, std::uint64_t seq, ActorId target,
                 int id) {
  const auto tag = static_cast<std::uint8_t>(id);
  return Event{t,
               origin,
               seq,
               target,
               static_cast<HandlerId>(id % 7),
               static_cast<std::uint8_t>(id % 5),
               static_cast<std::uint64_t>(id),
               ~static_cast<std::uint64_t>(id),
               Payload(static_cast<std::size_t>(id % 9), tag)};
}

/// Pops one event from both queues and checks they agree on the key,
/// the target and the body (which names the event's id).
void expect_same_pop(EventQueue& queue, RefQueue& ref) {
  ASSERT_FALSE(queue.empty());
  const RefEntry want = ref.top();
  ref.pop();
  EXPECT_EQ(queue.top_time(), want.time);
  const Event got = queue.pop();
  const Event expected =
      make_event(want.time, want.origin, want.seq, want.target, want.id);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.origin, want.origin);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.handler, expected.handler);
  EXPECT_EQ(got.kind, expected.kind);
  EXPECT_EQ(got.a, expected.a);
  EXPECT_EQ(got.b, expected.b);
  EXPECT_EQ(got.payload, expected.payload);
}

TEST(EventQueue, MatchesPriorityQueueReferenceUnderRandomInterleavings) {
  constexpr ActorId kOrigins = 6;
  // A few distinct times so equal times and equal (time, origin) pairs
  // are the common case, not the exception.
  const std::vector<Time> times = {0.0, 0.25, 0.25 + 1e-12, 0.5, 1.0, 7.5};
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng(trial + 1);
    EventQueue queue;
    RefQueue ref;
    int next_id = 0;
    // Live schedules draw ascending seqs from 1000 per origin; restore
    // pushes re-insert with old seqs from 0 up, below every live one.
    std::vector<std::uint64_t> live_seq(kOrigins + 1, 1000);
    std::vector<std::uint64_t> restored_seq(kOrigins + 1, 0);
    for (int step = 0; step < 4000; ++step) {
      const double u = rng.uniform_double();
      if (u < 0.55 || ref.empty()) {
        // Index kOrigins maps to kExternalActor, the largest origin id.
        const std::size_t o =
            static_cast<std::size_t>(rng.uniform_u64(kOrigins + 1));
        const ActorId origin = o == kOrigins ? kExternalActor
                                             : static_cast<ActorId>(o);
        const bool restore = rng.uniform_double() < 0.2;
        const std::uint64_t seq =
            restore ? restored_seq[o]++ : live_seq[o]++;
        const Time t = times[static_cast<std::size_t>(
            rng.uniform_u64(times.size()))];
        const ActorId target = static_cast<ActorId>(rng.uniform_u64(100));
        const int id = next_id++;
        ref.push(RefEntry{t, origin, seq, target, id});
        queue.push(make_event(t, origin, seq, target, id));
      } else {
        expect_same_pop(queue, ref);
      }
      ASSERT_FALSE(HasFailure()) << "trial " << trial << " step " << step;
      ASSERT_EQ(queue.size(), ref.size());
    }
    while (!ref.empty()) {
      expect_same_pop(queue, ref);
      ASSERT_FALSE(HasFailure()) << "trial " << trial << " final drain";
    }
    EXPECT_TRUE(queue.empty());
  }
}

/// The payload is the state an event carries: pop moves it out (its
/// buffer is the one pushed, not a copy), and a freed slot is reused
/// with the next event's body intact.
TEST(EventQueue, PopReleasesCallbackState) {
  EventQueue queue;
  Payload bytes(64, 0xAB);
  const std::uint8_t* buffer = bytes.data();
  queue.push(Event{1.0, 0, 0, 0, 2, 3, 4, 5, std::move(bytes)});
  {
    const Event e = queue.pop();
    EXPECT_EQ(e.payload.data(), buffer);  // moved out, not copied
    EXPECT_EQ(e.payload, Payload(64, 0xAB));
  }
  queue.push(Event{2.0, 1, 0, 3, 6, 7, 8, 9, Payload{1, 2, 3}});
  const Event e = queue.pop();
  EXPECT_EQ(e.target, 3u);
  EXPECT_EQ(e.handler, 6u);
  EXPECT_EQ(e.kind, 7u);
  EXPECT_EQ(e.a, 8u);
  EXPECT_EQ(e.b, 9u);
  EXPECT_EQ(e.payload, (Payload{1, 2, 3}));
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace ppo::sim
