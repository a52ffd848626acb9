// Discrete-event simulation core — the paper's "custom event-based
// simulation environment", where events occur at arbitrary times
// within a shuffling period. Actors (overlay nodes) are partitioned
// into K shards by a stable hash of their id, each shard owns a private
// event queue, and the shards execute in lockstep windows of one
// lookahead interval on a runner::ThreadPool. K = 1 is the serial case:
// one queue on the caller's thread, which is all that work without an
// overlay (static baselines, the dissemination flood, lower-layer
// tests) needs — nothing crosses a shard, so the window length
// constrains nothing there.
//
// Determinism contract (the whole point): for a fixed root seed the
// simulation trajectory is BIT-IDENTICAL for every shard count K,
// provided the protocol obeys two rules that the overlay stack
// satisfies by construction (and this class enforces with checks):
//
//  1. Lookahead. Every event one actor schedules for a *different*
//     actor lies at least `lookahead` in the future (transport
//     latency >= min_latency). Windows are exactly `lookahead` long,
//     so a cross-actor event sent inside window w always executes in
//     window w+1 or later — on every K, including K=1. Cross-shard
//     events travel through per-(src,dst) mailboxes that are drained
//     single-threaded at the window barrier; a cross-shard event that
//     would land inside the current window is a hard error.
//
//  2. Node-keyed state. Actors only touch their own state (plus
//     read-only shared structures) while a window runs; anything
//     shared mutably is published at barriers.
//
// Canonical ordering: every event carries (time, origin actor,
// per-origin sequence number). That triple is a total order that does
// not depend on sharding — the per-origin counter advances with the
// origin's own execution, which rule 1+2 make K-invariant — and every
// shard queue pops in that order. Equal-time events from different
// origins are ordered by origin id, not by arrival.
//
// run_until(end) is EXCLUSIVE of events at exactly `end` (they run in
// the next call): a window pops strictly-less-than its end so that an
// event at a barrier executes in the next window no matter which side
// of the mailbox it arrived on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ckpt/io.hpp"
#include "common/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace ppo::runner {
class ThreadPool;
}

namespace ppo::sim {

class ShardedSimulator {
 public:
  struct Options {
    /// Shard (and thread) count: shard 0 runs on the caller's thread,
    /// shards 1..K-1 on K-1 pool workers. 1 = serial execution on the
    /// caller's thread, still with the canonical event order — the
    /// reference run every K is bit-identical to.
    std::size_t shards = 1;
    /// Number of actors; actor ids must be < num_actors.
    std::size_t num_actors = 0;
    /// Window length per lockstep epoch. Must be <= the minimum
    /// cross-actor event latency (transport min_latency).
    Time lookahead = 0.01;
    /// Collect per-shard wall-clock busy/stall timings (two steady
    /// clock reads per shard per window). Event/mailbox/queue-depth
    /// counters in ShardStats are maintained regardless.
    bool profile = false;
  };

  /// Per-shard load profile, the input to the shard-skew analysis in
  /// tools/trace_summarize. Counter fields are exact and K-invariant;
  /// the *_seconds fields are wall-clock and only filled when
  /// Options::profile is set.
  struct ShardStats {
    std::uint64_t events = 0;        // events executed on this shard
    std::uint64_t windows = 0;       // windows this shard participated in
    std::uint64_t mailbox_out = 0;   // cross-shard events sent from here
    std::size_t max_queue = 0;       // high-water pending-queue depth
    double busy_seconds = 0.0;       // wall time inside run_shard_window
    double stall_seconds = 0.0;      // window wall time minus busy time
  };

  explicit ShardedSimulator(Options options);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Current virtual time: the executing event's timestamp while an
  /// event runs, the window floor otherwise.
  Time now() const;

  /// Registers `handler` (which must outlive the simulator) and
  /// returns its id. Register every handler before the first event
  /// runs; the registration order is part of a snapshot's identity.
  HandlerId add_handler(EventHandler& handler);

  /// Schedules an event of `handler`'s `kind` at absolute time `t`
  /// (>= now) on `actor`'s shard; the event runs as `actor`. `a`, `b`
  /// and `payload` are the handler's to interpret.
  void schedule_at_for(ActorId actor, Time t, HandlerId handler,
                       std::uint8_t kind, std::uint64_t a = 0,
                       std::uint64_t b = 0, Payload payload = {});

  /// The same, `delay` (>= 0) time units from now.
  void schedule_for(ActorId actor, Time delay, HandlerId handler,
                    std::uint8_t kind, std::uint64_t a = 0,
                    std::uint64_t b = 0, Payload payload = {});

  /// The same for the actor currently executing. Outside event context
  /// there is no such actor and this throws: use schedule_for.
  void schedule_after(Time delay, HandlerId handler, std::uint8_t kind,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      Payload payload = {});

  /// Runs lockstep windows until `end` (exclusive of events exactly at
  /// `end`); the clock advances to `end`. Returns events executed.
  /// An exception escaping an event (shard 0's first, else a worker's)
  /// propagates only after every shard of that window has stopped; the
  /// simulator is then unusable.
  std::size_t run_until(Time end);

  /// Runs windows until nothing is pending; returns events executed.
  /// Throws once `max_events` have run with events still pending. The
  /// budget is checked at window barriers, so the last window may
  /// overshoot it.
  std::size_t run_all(std::size_t max_events = kDefaultEventBudget);

  static constexpr std::size_t kDefaultEventBudget = 500'000'000;

  std::size_t num_shards() const { return queues_.size(); }
  std::size_t num_actors() const { return options_.num_actors; }
  Time lookahead() const { return options_.lookahead; }

  /// Stable shard assignment: a SplitMix64 hash of the actor id, so
  /// the mapping is independent of insertion order and uniform even
  /// for clustered id ranges.
  static std::size_t shard_of(ActorId actor, std::size_t shards);
  std::size_t shard_of(ActorId actor) const {
    return shard_of(actor, num_shards());
  }

  /// Shard of the actor executing on the calling thread, or kNoShard
  /// outside of a window (setup / measurement code).
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
  std::size_t current_shard() const;

  /// Runs single-threaded at the end of every window, after
  /// cross-shard mail has been delivered — the publication point for
  /// per-shard buffers (e.g. freshly minted pseudonyms).
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  std::uint64_t events_executed() const;
  std::size_t pending() const;
  bool idle() const { return pending() == 0; }

  /// One entry per shard; read only between run_until calls.
  const std::vector<ShardStats>& shard_stats() const { return stats_; }

  /// --- checkpoint/restore -------------------------------------------
  /// The per-origin sequence counters: (origin actor, per-origin seq)
  /// is the K-invariant half of the canonical order, so a checkpoint
  /// written at shard count K restores at any K' >= 1.
  const std::vector<std::uint64_t>& actor_seqs() const { return actor_seq_; }
  std::uint64_t external_seq() const { return external_seq_; }

  /// Overwrites the clock and sequence counters from a checkpoint.
  /// Only valid on a freshly constructed simulator (empty queues);
  /// `events_base` folds the pre-checkpoint event count into
  /// events_executed() so counters stay continuous across a resume.
  void restore_state(Time now, std::uint64_t events_base,
                     const std::vector<std::uint64_t>& actor_seqs,
                     std::uint64_t external_seq);

  /// Writes the queue section: the registered handlers' tags, then
  /// every pending event in canonical (time, origin, seq) order with
  /// its target, handler, kind, arguments and payload — bytes that do
  /// not depend on the shard count. Call between windows.
  void save_events(ckpt::Writer& w) const;

  /// Reads a queue section after restore_state() and pushes each event
  /// into the queue of its target's shard under the *current* shard
  /// count. Throws ckpt::ParseError on a handler list that differs
  /// from this simulator's, an unknown handler, an event its handler
  /// does not accept (EventHandler::accepts), a target out of range, a
  /// time that is not finite or lies before the clock, a seq not below
  /// its origin's restored counter, or events out of canonical order.
  void load_events(ckpt::Reader& r);

 private:
  void run_shard_window(std::size_t shard, Time window_end);
  void run_parallel_window(Time window_end);
  void drain_mailboxes();

  Options options_;
  Time now_ = 0.0;         // window floor (authoritative between windows)
  Time window_end_ = 0.0;  // current window's exclusive end
  bool in_window_ = false;
  std::vector<EventQueue> queues_;  // one per shard, owned by its thread
  /// mailboxes_[src][dst]: cross-shard events written lock-free by
  /// shard src's thread during a window, drained at the barrier.
  std::vector<std::vector<std::vector<Event>>> mailboxes_;
  /// Per-origin sequence counters. actor_seq_[a] is only touched
  /// while actor a executes (on a's shard), so it needs no lock and
  /// its value stream is K-invariant.
  std::vector<std::uint64_t> actor_seq_;
  std::uint64_t external_seq_ = 0;  // origin counter for setup events
  /// Events executed before the checkpoint this run resumed from.
  std::uint64_t events_base_ = 0;
  /// stats_[s] is written by shard s's thread during a window (events,
  /// mailbox_out, max_queue, busy) and by the coordinator at barriers
  /// (stall) — never both at once.
  std::vector<ShardStats> stats_;
  std::vector<EventHandler*> handlers_;  // by HandlerId
  /// Busy wall-seconds of the window in flight, per shard; consumed by
  /// the coordinator right after the barrier to compute stall.
  std::vector<double> window_busy_;
  std::function<void()> barrier_hook_;
  /// Runs shards 1..K-1; shard 0 runs on the caller of run_until, so
  /// K shards occupy exactly K threads. Absent when shards == 1.
  std::unique_ptr<runner::ThreadPool> pool_;
};

}  // namespace ppo::sim
