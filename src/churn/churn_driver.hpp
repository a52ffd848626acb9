// Drives per-node online/offline transitions inside the simulator and
// maintains the online mask the metric collectors consume.
#pragma once

#include <functional>
#include <vector>

#include "churn/churn_model.hpp"
#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::churn {

using NodeId = graph::NodeId;

/// Hooks fired on every state transition (after the mask is updated).
struct ChurnCallbacks {
  std::function<void(NodeId)> on_online;
  std::function<void(NodeId)> on_offline;
};

class ChurnDriver final : public sim::EventHandler {
 public:
  /// Homogeneous population: all nodes share `model` (the paper gives
  /// every node the same availability parameters, §IV-B).
  ChurnDriver(sim::ShardedSimulator& sim, std::size_t num_nodes,
              const ChurnModel& model, Rng rng);

  /// Heterogeneous population (Yao et al.'s general setting): node v
  /// follows *models[v]. All pointers must outlive the driver.
  ///
  /// Each node draws its dwell times from a private stream split off
  /// `rng` in node order, and each transition is an event of its own
  /// node, so one node's trajectory never perturbs another's and the
  /// online masks are the same for every shard count.
  ChurnDriver(sim::ShardedSimulator& sim,
              std::vector<const ChurnModel*> models, Rng rng);

  /// Samples initial states from each node's stationary distribution
  /// (online with probability alpha_v) and schedules the first
  /// transitions. `on_online` fires immediately for initially-online
  /// nodes if `fire_initial` is true.
  void start(ChurnCallbacks callbacks, bool fire_initial = true);

  /// Restore-time replacement for start(): installs the callbacks
  /// only. The pending transitions come back with the simulator's
  /// queue section.
  void resume(ChurnCallbacks callbacks);

  bool is_online(NodeId v) const { return online_.contains(v); }
  const graph::NodeMask& online_mask() const { return online_; }
  std::size_t online_count() const { return online_.count(num_nodes_); }
  std::size_t num_nodes() const { return num_nodes_; }

  /// Failure injection: the node goes offline now and never returns
  /// (until revive()).
  void fail_permanently(NodeId v);

  /// Brings a permanently-failed node back: it comes online now and
  /// resumes normal churn.
  void revive(NodeId v);

  /// --- checkpoint/restore -------------------------------------------
  /// Serializes each node's RNG stream and online/failed/epoch state.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  // --- sim::EventHandler: one kind, a node's next transition ---
  void fire(const sim::Event& event) override;
  std::uint32_t handler_tag() const override { return 0x4348524Eu; }
  bool accepts(const sim::Event& event) const override;

 private:
  void go_online(NodeId v);
  void go_offline(NodeId v);
  void schedule_transition(NodeId v);

  sim::ShardedSimulator& sim_;
  sim::HandlerId handler_;
  std::size_t num_nodes_;
  std::vector<const ChurnModel*> models_;  // one per node
  std::vector<Rng> node_rngs_;             // one per node
  graph::NodeMask online_;
  std::vector<char> failed_;
  /// Epoch counter per node: cancels stale transitions after
  /// fail_permanently.
  std::vector<std::uint64_t> epoch_;
  ChurnCallbacks callbacks_;
  bool started_ = false;
};

}  // namespace ppo::churn
