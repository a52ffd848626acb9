// The overlay-maintenance service: N protocol nodes built from a
// trust graph, churn-driven online/offline transitions, the
// privacy-preserving transport, and the measurement views the paper's
// metrics read — orchestrated on a sim::ShardedSimulator so
// independent nodes can run on parallel shard workers. K = 1 is the
// serial case: one shard on the caller's thread, the same canonical
// event order every K reproduces bit for bit.
//
// The service's job is to keep every source of randomness and every
// mutable structure *node-keyed*, which is what makes the trajectory
// bit-identical across shard counts:
//
//  - every RNG stream is derived statelessly from (seed, subsystem
//    tag, node id) via derive_seed() — churn dwell times, protocol
//    draws, pseudonym values and tick phases belong to their node, not
//    to a global draw order;
//  - the transport runs per-sender latency streams, and the fault
//    wrapper per-link fate streams;
//  - the pseudonym registry is read-only while a window runs: nodes
//    resolve through the const lookup() path, and freshly minted
//    pseudonyms are buffered per shard and published at the window
//    barrier (safe because a mint gossiped at time t cannot be
//    resolved by a remote node before t + min_latency, which is at
//    least one window away).
//
// Run the simulation via ShardedSimulator::run_until (exclusive of its
// end time). Membership is fixed at construction. Service-level
// faults are data, not shared toggles: node-crash bursts run via
// FaultInjector's per-victim events, pseudonym blackouts are windows
// installed up front (set_pseudonym_blackout_windows) that resolve()
// consults, and mix-relay outages are MixNetwork::schedule_crash
// windows — so shard workers stay race-free.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "adversary/engine.hpp"
#include "adversary/plan.hpp"
#include "churn/churn_driver.hpp"
#include "churn/churn_model.hpp"
#include "common/arena.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_transport.hpp"
#include "graph/graph.hpp"
#include "inference/observer.hpp"
#include "metrics/protocol_health.hpp"
#include "overlay/edge_view.hpp"
#include "overlay/node.hpp"
#include "overlay/params.hpp"
#include "privacylink/mix_transport.hpp"
#include "privacylink/pseudonym_service.hpp"
#include "privacylink/transport.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::overlay {

/// Every field has a default initializer, so a partial designated
/// initializer such as `{.params = p}` compiles without
/// -Wmissing-field-initializers.
struct OverlayServiceOptions {
  OverlayParams params{};
  privacylink::TransportOptions transport{};

  /// Full-stack mode: protocol messages ride real onion circuits
  /// through a MixNetwork instead of the ideal transport. Expensive;
  /// for small-scale validation and demos (see DESIGN.md).
  bool use_mix_network = false;
  privacylink::MixOptions mix{};
  privacylink::MixTransportOptions mix_transport{};

  /// Fault-injection extension: when set and enabled(), the transport
  /// is wrapped in a FaultyTransport applying this plan. An absent or
  /// inert plan leaves the simulation bit-identical to an unwrapped
  /// run (the fault streams have their own seed).
  std::optional<fault::FaultPlan> link_faults{};

  /// Byzantine-adversary extension (§III-E): when set and enabled(),
  /// an AdversaryEngine intercepts the shuffle send seams and drives
  /// the plan's attacker roles. An absent or zero-fraction plan skips
  /// engine construction entirely, so the run stays bit-identical to
  /// the unwrapped baseline (the engine draws only from plan-derived
  /// streams, never from the service's streams).
  std::optional<adversary::AdversaryPlan> adversary{};

  /// Link-privacy measurement extension (§III): when set and
  /// enabled(), a passive ObserverAdversary records the shuffle
  /// traffic its observation model can see. Purely read-only at the
  /// same send seams — it never perturbs the trajectory — and a
  /// zero-coverage plan skips construction entirely, keeping the run
  /// bit-identical to one with no plan at all.
  std::optional<inference::ObserverPlan> observer{};
};

/// Simulator options that fit a service with `options` over `nodes`
/// nodes: one actor per node, `shards` shards, and a lookahead equal to
/// the smallest cross-node latency (the mix network's hop latency in
/// mix mode, the transport's otherwise).
sim::ShardedSimulator::Options simulator_options(
    const OverlayServiceOptions& options, std::size_t nodes,
    std::size_t shards = 1);

class ShardedOverlayService final : public NodeEnvironment,
                                    public privacylink::LinkReceiver,
                                    public sim::EventHandler {
 public:
  /// `sim.num_actors()` must equal the trust graph's node count.
  /// Mix mode additionally requires min_hop_latency to clear the
  /// lookahead window (the exit hop crosses shards).
  ShardedOverlayService(sim::ShardedSimulator& sim,
                        const graph::Graph& trust_graph,
                        const churn::ChurnModel& churn_model,
                        OverlayServiceOptions options, std::uint64_t seed);

  ShardedOverlayService(sim::ShardedSimulator& sim,
                        const graph::Graph& trust_graph,
                        std::vector<const churn::ChurnModel*> churn_models,
                        OverlayServiceOptions options, std::uint64_t seed);

  /// Samples initial online states and schedules churn + shuffle
  /// ticks. Each node's tick phase comes from its own derived stream;
  /// the shuffle period must be positive.
  void start();

  // --- NodeEnvironment ---
  sim::Time now() const override { return sim_.now(); }
  bool is_online(NodeId node) const override {
    return churn_.is_online(node);
  }
  PseudonymRecord mint_pseudonym(NodeId owner, double lifetime) override;
  std::optional<NodeId> resolve(PseudonymValue value) override;
  void send_shuffle_request(NodeId from, NodeId to,
                            std::vector<PseudonymRecord> set) override;
  void send_shuffle_response(NodeId from, NodeId to,
                             std::vector<PseudonymRecord> set) override;
  void schedule_timer(NodeId node, double delay, NodeTimer timer,
                      std::uint64_t key) override;

  // --- privacylink::LinkReceiver: a shuffle message arriving ---
  void receive(NodeId from, NodeId to,
               std::span<const std::uint8_t> message) override;
  bool decodable(std::span<const std::uint8_t> message) const override;

  // --- sim::EventHandler: shuffle ticks and the nodes' timers ---
  void fire(const sim::Event& event) override;
  std::uint32_t handler_tag() const override { return 0x53485256u; }
  bool accepts(const sim::Event& event) const override;

  /// Pseudonym-service blackouts: install the full schedule before
  /// running the simulation. While any window contains now(),
  /// protocol-level resolution (resolve) fails; metric views keep
  /// their omniscient registry lookups, and minting stays local.
  /// Read-only during windows, so it is safe under parallel shard
  /// workers and K-invariant by construction.
  void set_pseudonym_blackout_windows(std::vector<fault::Window> windows) {
    pseudonym_blackouts_ = std::move(windows);
  }

  // --- inspection (call between windows) ---
  std::size_t num_nodes() const { return nodes_.size(); }
  const graph::Graph& trust_graph() const { return trust_graph_; }
  const graph::NodeMask& online_mask() const { return churn_.online_mask(); }
  std::size_t online_count() const { return churn_.online_count(); }
  OverlayNode& node(NodeId id) { return nodes_[id]; }
  const OverlayNode& node(NodeId id) const { return nodes_[id]; }
  churn::ChurnDriver& churn_driver() { return churn_; }
  /// The transport protocol messages go through (the fault wrapper
  /// when link_faults is enabled, the bare transport otherwise).
  const privacylink::LinkTransport& transport() const { return *link_; }
  const privacylink::PseudonymService& pseudonym_service() const {
    return pseudonyms_;
  }
  /// The mix network backing the transport (mix mode only).
  const privacylink::MixNetwork* mix_network() const { return mix_.get(); }
  /// Mutable access for installing relay outage windows
  /// (MixNetwork::schedule_crash) before the run.
  privacylink::MixNetwork* mutable_mix_network() { return mix_.get(); }
  /// The fault wrapper, if link_faults was set and enabled.
  const fault::FaultyTransport* fault_transport() const {
    return faulty_.get();
  }
  /// The adversary engine, if an enabled plan was set.
  const adversary::AdversaryEngine* adversary_engine() const {
    return engine_.get();
  }
  /// The passive observer, if an enabled plan was set.
  const inference::ObserverAdversary* observer() const {
    return observer_.get();
  }

  /// The current overlay graph over ALL nodes (online and offline):
  /// trust edges plus an edge {u, v} whenever u holds a live
  /// pseudonym of v. Metrics mask it with online_mask().
  graph::Graph overlay_snapshot() const;

  /// The same edge set as overlay_snapshot(), normalized (u < v,
  /// sorted, deduplicated) without materializing a Graph: per-node
  /// resolved-target slices are memoized across calls and re-derived
  /// only when the node's sampler mutated or an expiry passed (see
  /// edge_view.hpp). The span is valid until the next call. This is
  /// the measurement loop's path; feed it to
  /// CsrGraph::assign_from_edges or StreamingConnectivity.
  std::span<const std::pair<graph::NodeId, graph::NodeId>> overlay_edges();
  const OverlayEdgeView& edge_view() const { return edge_view_; }

  /// The nodes `v` can currently reach over its own links (n.links):
  /// trusted neighbors plus the owners of its live sampled
  /// pseudonyms. What an application layer on top of the overlay
  /// sends to (it addresses the LINKS; the identities here are
  /// simulator-level bookkeeping).
  std::vector<NodeId> current_peers(NodeId v) const;

  /// Aggregated per-node accounting.
  SlotSampler::ReplacementCounters total_replacements() const;
  OverlayNode::Counters total_counters() const;

  /// Protocol + transport degradation rollup for figure reports.
  metrics::ProtocolHealth protocol_health() const;

  /// Arena bytes reserved for all per-node hot state (cache entries,
  /// sampler slot arrays, pending-exchange blocks) — the numerator of
  /// the bytes-per-node telemetry in the crawl-scale reports.
  std::size_t node_state_bytes() const { return arena_.bytes_reserved(); }

  /// --- checkpoint/restore -------------------------------------------
  /// True when this configuration's full state can be snapshotted:
  /// every configuration but mix mode, whose onion hops are not
  /// restored.
  bool checkpointable() const { return !options_.use_mix_network; }

  /// Refuses mix mode; nothing else to arm, since every pending event
  /// is data the snapshot writes.
  void enable_checkpointing();

  /// Serializes the complete mutable state (clock, sequence counters,
  /// every RNG stream, node hot state), then the simulator's pending
  /// events — ticks, timers, churn transitions and in-flight messages
  /// alike. Call only at the quiescent point after run_until returned:
  /// all mailboxes drained, no window in flight, pending mint buffers
  /// published at the last barrier. Refuses mix mode.
  void save_checkpoint(ckpt::Writer& w) const;

  /// Counterpart: call INSTEAD of start() on a freshly constructed
  /// service over the same graph/options/seed. Pushes every pending
  /// event back under its original canonical key, so the snapshot
  /// restores at any shard count. The resumed run must slice run_until
  /// calls exactly like the original (lockstep windows re-anchor per
  /// call). Throws ckpt::ParseError on any inconsistency; refuses mix
  /// mode.
  void restore_from_checkpoint(ckpt::Reader& r);

  /// Nothing to prune since the event queue became the checkpoint.
  void prune_checkpoint_journal() {}

 private:
  struct PendingMint {
    NodeId owner;
    PseudonymRecord record;
  };

  /// Barrier hook: registers every pseudonym minted during the window
  /// (shard order, then mint order — deterministic for a fixed K and
  /// value-identical across K), then periodically GCs the registry.
  /// Adversary-minted records are published afterwards, sorted by
  /// (owner, value): their values are AIMED (not uniform), so live
  /// collisions are legitimate outcomes whose resolution must not
  /// depend on shard count.
  void publish_pending_mints();

  /// Builds the adversary engine when an enabled plan is configured.
  void init_adversary();

  /// Sampler slots of honest nodes currently resolving to an attacker
  /// (the eclipse-capture measure; 0 without an engine).
  std::uint64_t count_eclipsed_slots() const;

  /// Period of `v`'s shuffle ticks (polluters tick faster).
  double tick_period(NodeId v) const;

  /// Applies the send seams (adversary, observer) and ships `set`.
  void send_shuffle(NodeId from, NodeId to, bool is_response,
                    std::vector<PseudonymRecord>& set);

  /// A shuffle message on the wire: flags, the observer's pending
  /// observation when it saw the send, then the records as raw bytes.
  sim::Payload encode_message(
      bool is_response, const std::vector<PseudonymRecord>& set,
      const std::optional<inference::PendingObservation>& observed) const;
  /// Decodes into `set`; false when `message` is malformed.
  bool decode_message(
      std::span<const std::uint8_t> message, bool& is_response,
      std::vector<PseudonymRecord>& set,
      std::optional<inference::PendingObservation>& observed) const;

  /// Installs the churn callbacks (start() and the restore path).
  churn::ChurnCallbacks make_churn_callbacks();

  sim::ShardedSimulator& sim_;
  sim::HandlerId handler_;
  graph::Graph trust_graph_;
  OverlayServiceOptions options_;
  std::uint64_t seed_;
  privacylink::PseudonymService pseudonyms_;
  churn::ChurnDriver churn_;
  std::unique_ptr<privacylink::MixNetwork> mix_;  // mix mode only
  std::unique_ptr<privacylink::LinkTransport> transport_;  // bare inner
  std::unique_ptr<fault::FaultyTransport> faulty_;  // optional wrapper
  privacylink::LinkTransport* link_ = nullptr;  // what sends go through
  /// Typed view of transport_ in ideal-transport mode (checkpointing;
  /// null in mix mode).
  privacylink::Transport* bare_ = nullptr;
  /// Backs every node's hot state (cache entries, sampler slot
  /// arrays, pending-exchange blocks). Declared before nodes_ so it
  /// outlives them. Touched only at node construction, before any
  /// shard worker exists, so windows run against frozen allocations.
  Arena arena_;
  std::vector<OverlayNode> nodes_;
  /// Per-node pseudonym-value streams (derive_seed tag 4): a node's
  /// mint sequence is a function of its own mints alone.
  std::vector<Rng> mint_rngs_;
  /// Freshly minted records per shard, published at the barrier.
  std::vector<std::vector<PendingMint>> pending_mints_;
  /// Adversary-minted (eclipse) records per shard; published at the
  /// barrier in (owner, value) order — see publish_pending_mints().
  std::vector<std::vector<PendingMint>> pending_adversary_mints_;
  /// Installed blackout schedule (read-only while windows run).
  std::vector<fault::Window> pseudonym_blackouts_;
  std::unique_ptr<adversary::AdversaryEngine> engine_;  // optional
  std::unique_ptr<inference::ObserverAdversary> observer_;  // optional
  /// Memoized overlay-edge enumeration (overlay_edges()); touched
  /// only between windows, never by shard workers.
  OverlayEdgeView edge_view_;
  sim::Time last_gc_ = 0.0;
  bool started_ = false;
};

}  // namespace ppo::overlay
