// Passive link-privacy observer (ROADMAP "link-privacy inference
// benchmark"; ground: Mittal et al., arXiv:1208.6189 and Nguyen et
// al., arXiv:1609.01616). The paper's protocol hides the trust graph
// behind rotating pseudonyms; this adversary measures how much of it
// leaks anyway. It taps the shuffle send seam of ShardedOverlayService
// (the same seam the Byzantine engine uses) and records what a network-level eavesdropper would see: the
// pseudonym-to-pseudonym exchange metadata, never node identities.
//
// Observation model: a global passive observer (coverage = 1) sees
// every delivered shuffle message; a local observer is a seeded
// fraction of colluding nodes that see only traffic they send or
// receive. The colluder set is a pure function of (plan, num_nodes),
// like adversary::materialize_roles.
//
// Determinism contract (mirrors adversary/engine.hpp): the log is
// node-keyed — each record is appended from the RECEIVING node's own
// event context into that node's buffer, so on the sharded backend
// every shard touches disjoint state and the merged log is
// bit-identical for every shard count K. The observer draws from no
// RNG at run time and only reads state owned by the executing node,
// so an enabled observer never perturbs the trajectory, and a
// zero-coverage plan (observer not even constructed) is trivially
// bit-identical to no observer at all.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/io.hpp"
#include "graph/graph.hpp"
#include "privacylink/pseudonym.hpp"
#include "sim/types.hpp"

namespace ppo::inference {

using NodeId = graph::NodeId;
using privacylink::PseudonymRecord;
using privacylink::PseudonymValue;

struct ObserverPlan {
  /// Fraction of nodes colluding with the observer. 1.0 is the global
  /// passive observer; anything below sees only traffic with a
  /// colluder endpoint. 0 disables the observer entirely.
  double coverage = 0.0;
  std::uint64_t seed = 0x0B5E;

  /// True iff the observer sees anything. Services skip observer
  /// construction entirely when false, so a zero-coverage plan is
  /// bit-identical to no plan at all.
  bool enabled() const { return coverage > 0.0; }

  /// Aborts (PPO_CHECK) on out-of-range knobs.
  void validate() const;
};

/// Colluder mask as a pure function of (plan, num_nodes): a seeded
/// shuffle of the id space, first round(coverage * n) ids collude.
std::vector<bool> materialize_observers(const ObserverPlan& plan,
                                        std::size_t num_nodes);

/// One observed shuffle delivery. Pseudonym fields are what the wire
/// leaks; the truth_* node ids are ground-truth annotations recorded
/// for the EVALUATOR only — inference attacks must never read them.
struct ObservationRecord {
  double time = 0.0;
  PseudonymValue src_pseudo = 0;
  double src_expiry = 0.0;
  PseudonymValue dst_pseudo = 0;
  double dst_expiry = 0.0;
  /// FNV digest of the exchanged record set (values + expiries).
  std::uint64_t digest = 0;
  bool is_response = false;
  NodeId truth_src = 0;  // evaluator-only ground truth
  NodeId truth_dst = 0;  // evaluator-only ground truth
  std::uint64_t seq = 0;  // per-destination emission order

  friend bool operator==(const ObservationRecord&,
                         const ObservationRecord&) = default;
};

/// Digest of a shuffle set as the observer sees it on the wire.
std::uint64_t observation_digest(const std::vector<PseudonymRecord>& set);

/// Everything captured in the SENDER's event context at the send
/// seam; completed into a record in the receiver's context on
/// delivery. Plain data, so it travels inside the shuffle message.
struct PendingObservation {
  double time = 0.0;
  NodeId src = 0;
  PseudonymValue src_pseudo = 0;
  double src_expiry = 0.0;
  std::uint64_t digest = 0;
  bool is_response = false;
};

class ObserverAdversary {
 public:
  ObserverAdversary(const ObserverPlan& plan, std::size_t num_nodes);

  const ObserverPlan& plan() const { return plan_; }
  std::size_t observer_count() const { return observer_count_; }
  bool is_observer(NodeId v) const { return observers_[v]; }

  /// True when a message from -> to crosses the observer's view:
  /// always under the global model, else when either endpoint
  /// colludes.
  bool observes(NodeId from, NodeId to) const {
    return global_ || observers_[from] || observers_[to];
  }

  /// Sender-context capture at the send seam (post adversary
  /// transform, i.e. what is actually on the wire). Returns nullopt
  /// when the message is outside the observer's view or the sender
  /// has no live pseudonym to be seen under.
  std::optional<PendingObservation> capture(
      NodeId from, NodeId to, sim::Time now, bool is_response,
      const std::optional<PseudonymRecord>& src_own,
      const std::vector<PseudonymRecord>& set) const;

  /// Receiver-context completion on delivery: appends to the
  /// destination node's buffer (touched only from that node's
  /// events — the K-invariance contract).
  void deliver(const PendingObservation& pending, NodeId to,
               const std::optional<PseudonymRecord>& dst_own);

  /// Total records across all buffers (call between windows).
  std::uint64_t records_recorded() const;

  /// Canonical merged log: (time, truth_dst, seq) order — the same
  /// K-invariant merge discipline as obs::Tracer. Call only at
  /// quiescent points (no simulation windows in flight).
  std::vector<ObservationRecord> merged() const;

  /// Checkpoint/restore: every per-destination buffer verbatim.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  struct Buffer {
    std::vector<ObservationRecord> records;
    std::uint64_t seq = 0;
  };

  ObserverPlan plan_;
  bool global_ = false;
  std::vector<bool> observers_;
  std::size_t observer_count_ = 0;
  std::vector<Buffer> buffers_;  // indexed by destination node
};

}  // namespace ppo::inference
