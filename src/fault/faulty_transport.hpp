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
//
// The wrapper interposes as the inner transport's receiver. A copy's
// fate is decided at send and rides with the message: a dropped copy
// travels as an empty message, any other copy carries its extra delay
// as an 8-byte trailer. A delayed copy's second stage is an event of
// the wrapper's own, so every in-flight copy is checkpointable data.
#pragma once

#include <atomic>
#include <unordered_map>
#include <vector>

#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "privacylink/link_transport.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::fault {

class FaultyTransport final : public privacylink::LinkTransport,
                              public privacylink::LinkReceiver,
                              public sim::EventHandler {
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

  /// `inner` must outlive the wrapper, which becomes its receiver. The
  /// plan is validated here. `num_nodes` (> 0) bounds sender ids.
  FaultyTransport(sim::ShardedSimulator& sim,
                  privacylink::LinkTransport& inner, FaultPlan plan,
                  std::size_t num_nodes);

  /// Sends through the inner transport, applying the plan's faults.
  /// Returns false exactly when the inner transport refuses the send
  /// (offline sender); fault-dropped messages still count as sent.
  bool send(graph::NodeId from, graph::NodeId to,
            sim::Payload message) override;

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
  /// Per-link message indices and all counters.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  // --- privacylink::LinkReceiver: the first stage, from the inner
  // transport ---
  void receive(graph::NodeId from, graph::NodeId to,
               std::span<const std::uint8_t> message) override;
  bool decodable(std::span<const std::uint8_t> message) const override;

  // --- sim::EventHandler: one kind, a delayed copy's second stage ---
  void fire(const sim::Event& event) override;
  std::uint32_t handler_tag() const override { return 0x464C5459u; }
  bool accepts(const sim::Event& event) const override;

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
                 sim::Payload message, const Fate& fate);
  /// Hands a copy that completed its delay to the receiver.
  void deliver(graph::NodeId from, graph::NodeId to,
               std::span<const std::uint8_t> message);
  bool in_partition_group(std::size_t partition, graph::NodeId v) const;

  sim::ShardedSimulator& sim_;
  sim::HandlerId handler_;
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
