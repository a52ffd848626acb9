// Pending-event queue of one ShardedSimulator shard.
//
// Pops events in the canonical (time, origin, seq) order. The layout
// is chosen for crawl-scale shards, which hold tens of thousands of
// pending events — far more than fit in L2 as fat entries:
//
//  * a 4-ary min-heap of 24-byte keys (time, origin, seq, slot). Sifts
//    move keys only, and a 4-ary heap is half as deep as a binary one,
//    with each node's four children adjacent in memory;
//  * a slab of {target, callback} payloads addressed by the key's
//    slot. A callback is moved once in (push) and once out (pop),
//    never during sifts. Freed slots are chained through their
//    `target` field and reused last-in first-out, so the slab never
//    outgrows the queue's high-water mark.
//
// Keys are unique in practice ((origin, seq) is), which makes the pop
// order a pure function of the pushed set — the order any correct
// priority queue over the same comparison would produce.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/types.hpp"

namespace ppo::sim {

/// A pending event in loose form: what goes into and comes out of an
/// EventQueue, and what crosses shards through the mailboxes.
struct Event {
  Time time = 0.0;
  /// Scheduling actor and its per-origin sequence number:
  /// (time, origin, seq) is the canonical, K-invariant total order.
  ActorId origin = kExternalActor;
  std::uint64_t seq = 0;
  /// Actor the event runs as (= the executing context for events it
  /// schedules in turn).
  ActorId target = kExternalActor;
  EventFn fn;
};

class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the next event. Requires !empty().
  Time top_time() const { return heap_.front().time; }

  void push(Event&& event) {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      Payload& p = slab_[slot];
      free_head_ = p.target;
      p.target = event.target;
      p.fn = std::move(event.fn);
    } else {
      PPO_CHECK_MSG(slab_.size() < kNoSlot, "event queue slab overflow");
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(Payload{event.target, std::move(event.fn)});
    }
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{event.time, event.origin, slot, event.seq});
  }

  /// Removes and returns the next event in canonical order. Requires
  /// !empty(). The callback is moved out, so it may push into this
  /// queue while it runs.
  Event pop() {
    const Key top = heap_.front();
    Payload& p = slab_[top.slot];
    Event out{top.time, top.origin, top.seq, p.target, std::move(p.fn)};
    p.target = free_head_;
    free_head_ = top.slot;
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return out;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kArity = 4;

  struct Key {
    Time time;
    ActorId origin;
    std::uint32_t slot;  // payload index in slab_
    std::uint64_t seq;
  };
  static_assert(sizeof(Key) == 24, "heap keys must stay compact");

  struct Payload {
    ActorId target;  // next free slot while the slot is on the free list
    EventFn fn;
  };

  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.seq < b.seq;
  }

  /// Moves the hole at `hole` up until `key` fits, then stores it.
  void sift_up(std::size_t hole, const Key& key) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!before(key, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = key;
  }

  /// Moves the hole at the root down until `key` fits, then stores it.
  void sift_down(const Key& key) {
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = kArity * hole + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], key)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = key;
  }

  std::vector<Key> heap_;
  std::vector<Payload> slab_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ppo::sim
