// FaultyTransport: a deterministic fault-injecting decorator for any
// LinkTransport. The inner transport keeps its own semantics (sender
// gating, latency, destination-online delivery check); this wrapper
// adds the adversities a FaultPlan describes on top: random message
// loss (plan-wide or per-link overridden), delay jitter, duplication,
// held-back reordering, link blackout windows and network partitions.
//
// Guarantees:
//  - a plan with no faults configured (FaultPlan::enabled() == false)
//    makes the wrapper a true no-op: it forwards every send verbatim,
//    never touches its RNG, and the simulation trajectory is
//    bit-identical to running on the bare inner transport;
//  - fault decisions are reproducible: each one comes from a stream
//    derived per (FaultPlan::seed, from, to, link message index), so
//    a link's fault pattern depends only on its own traffic and is the
//    same for every shard count.
#pragma once

#include <atomic>
#include <unordered_map>
#include <vector>

#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "privacylink/delivery_journal.hpp"
#include "privacylink/link_transport.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::fault {

class FaultyTransport final : public privacylink::LinkTransport {
 public:
  /// Fault-specific accounting, on top of the sent/delivered counters
  /// of the LinkTransport interface.
  struct Counters {
    std::uint64_t injected_drops = 0;   // random per-message loss
    std::uint64_t outage_drops = 0;     // lost to a blackout window
    std::uint64_t partition_drops = 0;  // lost crossing a partition
    std::uint64_t duplicates = 0;       // extra copies spawned
    std::uint64_t delayed = 0;          // messages given extra delay

    std::uint64_t total_faulted() const {
      return injected_drops + outage_drops + partition_drops + duplicates +
             delayed;
    }
  };

  /// `inner` must outlive the wrapper. The plan is validated here.
  /// `num_nodes` (> 0) bounds sender ids.
  FaultyTransport(sim::ShardedSimulator& sim,
                  privacylink::LinkTransport& inner, FaultPlan plan,
                  std::size_t num_nodes);

  /// Sends through the inner transport, applying the plan's faults.
  /// Returns false exactly when the inner transport refuses the send
  /// (offline sender); fault-dropped messages still count as sent.
  bool send(graph::NodeId from, graph::NodeId to,
            sim::EventFn on_deliver) override;

  std::uint64_t messages_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the fault counters (consistent only outside windows).
  Counters counters() const;
  const FaultPlan& plan() const { return plan_; }

  /// Effective loss probability on the directed link from -> to
  /// (override if present, else the plan-wide probability).
  double drop_probability_on(graph::NodeId from, graph::NodeId to) const;

  /// --- checkpoint/restore -------------------------------------------
  /// While set, each copy's fate annotation lands in the journal next
  /// to the inner transport's committed delivery. Checkpointing only
  /// supports plans whose deliveries are single-stage (no jitter or
  /// reorder extra delay): plan_checkpointable() gates that.
  void set_journal(privacylink::DeliveryJournal* journal) {
    journal_ = journal;
  }
  bool plan_checkpointable() const {
    return plan_.jitter_max <= 0.0 && plan_.reorder_probability <= 0.0;
  }

  /// Wraps a restored payload with this transport's delivery counter
  /// (the stage the wrapper adds on top of the inner delivery).
  sim::EventFn wrap_restored(sim::EventFn payload) {
    return [this, fn = std::move(payload)] {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      if (fn) fn();
    };
  }

  /// Per-link message indices and all counters.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  /// Extra loss the time-varying profiles (Gilbert-Elliott burst
  /// state + diurnal sinusoid) contribute at time t. Read-only: the
  /// GE chain is pre-materialized at construction, so this is safe to
  /// call from parallel shard workers. 0 with both profiles off.
  double profile_extra_drop(double t) const;

 private:
  using AtomicCount = std::atomic<std::uint64_t>;

  /// How one message copy should fare, decided at send time.
  struct Fate {
    bool drop = false;
    AtomicCount* drop_counter = nullptr;
    double extra_delay = 0.0;
  };

  static std::uint64_t link_key(graph::NodeId from, graph::NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Stream of the next fate decision on from -> to: derived from the
  /// link's own message index, which it advances.
  Rng next_link_rng(graph::NodeId from, graph::NodeId to);
  Fate decide_fate(graph::NodeId from, graph::NodeId to);
  bool send_copy(graph::NodeId from, graph::NodeId to,
                 const sim::EventFn& on_deliver, const Fate& fate);
  bool in_partition_group(std::size_t partition, graph::NodeId v) const;

  sim::ShardedSimulator& sim_;
  privacylink::LinkTransport& inner_;
  FaultPlan plan_;
  /// Per-sender message counters for per-link stream derivation,
  /// indexed by sender — only the sender's shard ever touches its
  /// slot, so no lock is needed.
  std::vector<std::unordered_map<graph::NodeId, std::uint64_t>> link_counts_;
  /// Directional drop overrides keyed by link_key(); later plan
  /// entries win.
  std::unordered_map<std::uint64_t, double> drop_overrides_;
  /// Gilbert-Elliott state per chain step (1 = bad), pre-materialized
  /// from the plan seed; empty when the profile is off.
  std::vector<char> ge_bad_;
  /// Per-partition membership masks, indexed like plan_.partitions.
  std::vector<std::vector<char>> partition_masks_;
  privacylink::DeliveryJournal* journal_ = nullptr;
  AtomicCount sent_{0};
  AtomicCount delivered_{0};
  struct {
    AtomicCount injected_drops{0};
    AtomicCount outage_drops{0};
    AtomicCount partition_drops{0};
    AtomicCount duplicates{0};
    AtomicCount delayed{0};
  } counters_;
};

}  // namespace ppo::fault
