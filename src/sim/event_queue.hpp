// Pending events of one ShardedSimulator shard, and the handler
// interface that runs them.
//
// An event is a plain record: its canonical key, the actor it runs as,
// the handler that scheduled it and one of that handler's kinds, two
// integer arguments and an owned byte payload. Because it is data, the
// queue itself is what a checkpoint writes (DESIGN.md §13).
//
// The queue pops events in the canonical (time, origin, seq) order. The
// layout is chosen for crawl-scale shards, which hold tens of thousands
// of pending events — far more than fit in L2 as fat entries:
//
//  * a 4-ary min-heap of 24-byte keys (time, origin, seq, slot). Sifts
//    move keys only, and a 4-ary heap is half as deep as a binary one,
//    with each node's four children adjacent in memory;
//  * a slab of event bodies addressed by the key's slot. A body is
//    moved once in (push) and once out (pop), never during sifts.
//    Freed slots are chained through their `target` field and reused
//    last-in first-out, so the slab never outgrows the queue's
//    high-water mark.
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

/// A pending event: what goes into and comes out of an EventQueue,
/// what crosses shards through the mailboxes, and what a checkpoint
/// writes.
struct Event {
  Time time = 0.0;
  /// Scheduling actor and its per-origin sequence number:
  /// (time, origin, seq) is the canonical, K-invariant total order.
  ActorId origin = kExternalActor;
  std::uint64_t seq = 0;
  /// Actor the event runs as (= the executing context for events it
  /// schedules in turn).
  ActorId target = kExternalActor;
  /// The handler that runs it, and which of the handler's kinds.
  HandlerId handler = 0;
  std::uint8_t kind = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  Payload payload{};
};

/// A component that schedules events registers itself once
/// (ShardedSimulator::add_handler) and runs its own kinds in fire().
class EventHandler {
 public:
  /// Runs `event`, one of this handler's kinds, as `event.target`.
  virtual void fire(const Event& event) = 0;

  /// Names the component in a snapshot's handler list.
  virtual std::uint32_t handler_tag() const = 0;

  /// Restore gate: whether this handler could have scheduled `event`
  /// — a kind it knows, arguments in range and a payload it can
  /// decode. The default refuses every event: the component's events
  /// are outside the checkpoint scope.
  virtual bool accepts(const Event& /*event*/) const { return false; }

 protected:
  // Registered by address: a handler is never copied.
  EventHandler() = default;
  EventHandler(const EventHandler&) = delete;
  EventHandler& operator=(const EventHandler&) = delete;
  ~EventHandler() = default;
};

class EventQueue {
 public:
  /// Everything of a pending event but its key: what the slab stores.
  struct Body {
    ActorId target;  // next free slot while the slot is on the free list
    HandlerId handler;
    std::uint8_t kind;
    std::uint64_t a;
    std::uint64_t b;
    Payload payload;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the next event. Requires !empty().
  Time top_time() const { return heap_.front().time; }

  void push(Event&& event) {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      Body& body = slab_[slot];
      free_head_ = body.target;
      body = Body{event.target, event.handler, event.kind, event.a, event.b,
                  std::move(event.payload)};
    } else {
      PPO_CHECK_MSG(slab_.size() < kNoSlot, "event queue slab overflow");
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(Body{event.target, event.handler, event.kind, event.a,
                           event.b, std::move(event.payload)});
    }
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{event.time, event.origin, slot, event.seq});
  }

  /// Removes and returns the next event in canonical order. Requires
  /// !empty(). The payload is moved out, so the handler may push into
  /// this queue while it runs.
  Event pop() {
    const Key top = heap_.front();
    Body& body = slab_[top.slot];
    Event out{top.time, top.origin,   top.seq, body.target,
              body.handler, body.kind, body.a,  body.b,
              std::move(body.payload)};
    body.target = free_head_;
    free_head_ = top.slot;
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return out;
  }

  /// Calls visit(time, origin, seq, body) for every pending event, in
  /// heap order (callers that need canonical order sort by the key).
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const Key& key : heap_)
      visit(key.time, key.origin, key.seq, slab_[key.slot]);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kArity = 4;

  struct Key {
    Time time;
    ActorId origin;
    std::uint32_t slot;  // body index in slab_
    std::uint64_t seq;
  };
  static_assert(sizeof(Key) == 24, "heap keys must stay compact");

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
  std::vector<Body> slab_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ppo::sim
