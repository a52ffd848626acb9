// Runtime behaviour of the Byzantine roles in an AdversaryPlan. The
// engine sits at the *service* send seam (ShardedOverlayService),
// keeping OverlayNode protocol-pure: just
// before a shuffle request/response leaves an attacker, the service
// asks the engine to rewrite (pollute / replay / eclipse) or suppress
// (defect) the outgoing set, and feeds delivered sets back in so
// replayers can harvest values to re-inject.
//
// Determinism contract: every mutable piece of engine state (RNG
// stream, replay memory, counters) is keyed by the acting node and is
// only touched from that node's own events, so on the sharded backend
// each shard touches disjoint state and trajectories are bit-identical
// for every K. The engine never draws from a service RNG: all streams
// derive from the plan seed, so a zero-attacker plan (engine not even
// constructed) is bit-identical to the unwrapped baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "adversary/plan.hpp"
#include "ckpt/io.hpp"
#include "common/rng.hpp"
#include "privacylink/pseudonym.hpp"
#include "sim/types.hpp"

namespace ppo::adversary {

using privacylink::PseudonymRecord;
using privacylink::PseudonymValue;

/// The few overlay parameters the engine needs, passed as plain values
/// so ppo_adversary does not depend on ppo_overlay (which links back
/// to this library).
struct EngineConfig {
  std::size_t shuffle_length = 40;  // ℓ — forged sets fill up to this
  double pseudonym_lifetime = 90.0;
  std::size_t pseudonym_bits = 64;
};

struct OutgoingVerdict {
  /// Defector verdict: the service must swallow the message entirely
  /// (the transport never sees it).
  bool suppress = false;
  /// Freshly minted eclipse records the service must register to the
  /// sending attacker at the pseudonym service — through the same
  /// publication path as honest mints so sharded registration stays
  /// barrier-published, and tolerantly (try_register_minted) because
  /// adversarial values are aimed, not drawn from the full space.
  std::vector<PseudonymRecord> to_register;
};

class AdversaryEngine {
 public:
  AdversaryEngine(const AdversaryPlan& plan, std::size_t num_nodes,
                  EngineConfig config);

  bool active() const { return assignment_.attacker_count > 0; }
  const AdversaryPlan& plan() const { return plan_; }
  const RoleAssignment& assignment() const { return assignment_; }
  Role role_of(NodeId v) const { return assignment_.roles[v]; }
  NodeId victim_of(NodeId v) const { return assignment_.victim[v]; }

  /// Wired by the service: returns a node's sampler reference values.
  /// References are immutable after node construction, so eclipsers
  /// may probe victims across shards without synchronization.
  void set_reference_probe(
      std::function<std::vector<PseudonymValue>(NodeId)> probe);

  /// Aims `attacker`'s shuffle requests at a fixed target (services
  /// point polluters at their first trusted neighbour; the engine
  /// itself aims eclipsers at their victim).
  void set_request_redirect(NodeId attacker, NodeId target);

  /// Where `from`'s next shuffle request should really go.
  NodeId redirect_request_target(NodeId from, NodeId original) const;

  /// Shuffle-tick period multiplier for `v` (> 1 for polluters).
  double tick_rate_multiplier(NodeId v) const;

  /// Rewrites (or suppresses) an outgoing shuffle set. Runs in the
  /// sending node's event context. The composed set's own record rides
  /// last (compose_shuffle_set contract) and is preserved so honest
  /// nodes can still link back to the attacker.
  OutgoingVerdict transform_outgoing(NodeId from, sim::Time now,
                                     bool is_response,
                                     std::vector<PseudonymRecord>& set);

  /// Runs in the receiving node's event context on delivery: feeds
  /// replayer memory.
  void observe_received(NodeId to, const std::vector<PseudonymRecord>& set);

  struct Counters {
    std::uint64_t forged_injected = 0;
    std::uint64_t replays_injected = 0;
    std::uint64_t eclipse_records_injected = 0;
    std::uint64_t responses_suppressed = 0;
  };
  /// Summed over all nodes. Call between windows or at run end only.
  Counters total_counters() const;

  /// Checkpoint/restore: every per-node mutable state (RNG streams,
  /// replay memory, probe caches, counters) plus the redirect table.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  struct NodeState {
    Rng rng{0};
    std::vector<PseudonymRecord> memory;  // replayer ring buffer
    std::size_t memory_next = 0;          // ring write cursor
    std::size_t replay_cursor = 0;        // next record to re-inject
    std::vector<PseudonymValue> victim_refs;  // eclipser probe cache
    bool refs_probed = false;
    std::size_t eclipse_cursor = 0;       // next reference to aim at
    Counters counters;
  };

  PseudonymRecord forged_record(NodeState& st, sim::Time now) const;
  void fill_forged(NodeId from, sim::Time now,
                   std::vector<PseudonymRecord>& set, NodeState& st);
  void fill_replayed(NodeId from, sim::Time now,
                     std::vector<PseudonymRecord>& set, NodeState& st);
  void fill_eclipse(NodeId from, sim::Time now,
                    std::vector<PseudonymRecord>& set, NodeState& st,
                    std::vector<PseudonymRecord>& to_register);

  AdversaryPlan plan_;
  EngineConfig config_;
  RoleAssignment assignment_;
  std::vector<NodeState> states_;      // indexed by node, touched only
                                       // from that node's events
  std::vector<NodeId> redirect_;       // request redirect targets
  std::function<std::vector<PseudonymValue>(NodeId)> probe_;
};

}  // namespace ppo::adversary
