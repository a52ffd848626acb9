// Per-node overlay-maintenance protocol (§III): trusted links from the
// trust graph, pseudonym links chosen by the slot sampler, periodic
// shuffling, and TTL-driven pseudonym renewal. All I/O goes through
// the NodeEnvironment interface implemented by ShardedOverlayService.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ckpt/io.hpp"
#include "common/arena.hpp"
#include "common/flat_map.hpp"
#include "overlay/cache.hpp"
#include "overlay/params.hpp"
#include "overlay/sampler.hpp"
#include "privacylink/pseudonym.hpp"

namespace ppo::overlay {

using privacylink::NodeId;

/// The node's one-shot timers: the key is the renewal epoch or the
/// exchange id the timer was armed for.
enum class NodeTimer : std::uint8_t { kRenewal = 0, kExchangeTimeout = 1 };

/// Services the node consumes: messaging, the pseudonym service, and
/// the simulator clock. Keeps OverlayNode free of global state and
/// directly unit-testable against a mock environment.
class NodeEnvironment {
 public:
  virtual ~NodeEnvironment() = default;

  virtual sim::Time now() const = 0;
  virtual bool is_online(NodeId node) const = 0;

  /// Mints a pseudonym for `owner` at the pseudonym service.
  virtual PseudonymRecord mint_pseudonym(NodeId owner, double lifetime) = 0;

  /// Resolves a live pseudonym to its owner (ideal service).
  virtual std::optional<NodeId> resolve(PseudonymValue value) = 0;

  /// Ships a shuffle request/response over a privacy-preserving link.
  virtual void send_shuffle_request(NodeId from, NodeId to,
                                    std::vector<PseudonymRecord> set) = 0;
  virtual void send_shuffle_response(NodeId from, NodeId to,
                                     std::vector<PseudonymRecord> set) = 0;

  /// One-shot timer of `node`: after `delay` the environment calls
  /// node.fire_timer(timer, key).
  virtual void schedule_timer(NodeId node, double delay, NodeTimer timer,
                              std::uint64_t key) = 0;
};

class OverlayNode {
 public:
  struct Counters {
    std::uint64_t requests_sent = 0;   // retransmissions included
    std::uint64_t responses_sent = 0;
    std::uint64_t shuffles_completed = 0;  // responses received
    std::uint64_t online_ticks = 0;
    std::size_t max_out_degree = 0;

    /// Degradation accounting (fault-tolerance extension): how the
    /// node fares when the network loses or delays its exchanges.
    std::uint64_t request_timeouts = 0;    // timer fired, no response yet
    std::uint64_t request_retries = 0;     // retransmissions sent
    std::uint64_t exchanges_aborted = 0;   // pending exchange given up
    std::uint64_t stale_responses = 0;     // response without a pending
                                           // exchange (late or duplicate)

    /// Byzantine-defense accounting (§III-E extension): records
    /// rejected by expiry/format validation on merge, and shuffle
    /// requests dropped by the per-peer rate limiter.
    std::uint64_t forged_rejected = 0;
    std::uint64_t requests_rate_limited = 0;

    std::uint64_t messages_sent() const {
      return requests_sent + responses_sent;
    }
  };

  OverlayNode(NodeId id, const OverlayParams& params,
              std::vector<NodeId> trusted_neighbors, NodeEnvironment& env,
              Rng rng);

  /// Service mode: the node's hot state (cache entries, sampler slot
  /// arrays, pending-exchange block) is carved from `arena`, which
  /// must outlive the node. Nodes are movable (vector storage in the
  /// services); arena chunks never relocate, so moves keep all spans
  /// valid.
  OverlayNode(Arena& arena, NodeId id, const OverlayParams& params,
              std::vector<NodeId> trusted_neighbors, NodeEnvironment& env,
              Rng rng);

  OverlayNode(OverlayNode&&) = default;
  OverlayNode(const OverlayNode&) = delete;
  OverlayNode& operator=(const OverlayNode&) = delete;

  NodeId id() const { return id_; }
  std::size_t trust_degree() const { return trusted_.size(); }
  std::size_t slot_capacity() const { return sampler_.slot_count(); }

  /// Churn callbacks (driven by the overlay service).
  void handle_online();
  void handle_offline();

  /// One shuffle-period tick: pick a random overlay link, ship own
  /// pseudonym + cache sample to its far end.
  void shuffle_tick();

  /// A timer armed through NodeEnvironment::schedule_timer came due.
  /// Stale keys (a newer mint, a finished exchange) are no-ops.
  void fire_timer(NodeTimer timer, std::uint64_t key);

  /// Incoming shuffle traffic (already gated on this node being
  /// online by the transport).
  void handle_shuffle_request(NodeId from,
                              const std::vector<PseudonymRecord>& received);
  void handle_shuffle_response(const std::vector<PseudonymRecord>& received);

  /// Current pseudonym links: distinct live sampled values.
  std::vector<PseudonymValue> pseudonym_links() const;

  /// The sampler's permanent reference values (immutable after
  /// construction; safe to read across shards). Exposed for the
  /// §III-E eclipse-attack studies and their accounting.
  std::vector<PseudonymValue> sampler_references() const {
    return sampler_.references();
  }
  const std::vector<NodeId>& trusted_links() const { return trusted_; }

  /// Out-degree right now: trusted links + live pseudonym links.
  std::size_t out_degree() const;

  const Counters& counters() const { return counters_; }
  /// An initiated shuffle is awaiting its response (test/diagnostic).
  bool has_pending_exchange() const { return pending_.has_value(); }
  const SlotSampler::ReplacementCounters& replacement_counters() const {
    return sampler_.counters();
  }
  /// Direct sampler access (slot inspection for eclipse accounting).
  const SlotSampler& sampler() const { return sampler_; }
  const PseudonymCache& cache() const { return cache_; }

  /// Own live pseudonym, if any (test/diagnostic use).
  std::optional<PseudonymRecord> own_pseudonym() const;

  /// Instrumentation for the §III-E attack studies: plants a record
  /// in this node's cache as if it had just arrived in a shuffle from
  /// an (adversarial) neighbor.
  void inject_cache_record(const PseudonymRecord& record);

  /// --- checkpoint/restore -------------------------------------------
  /// Serializes the node's full mutable state. Its pending timers are
  /// events in the simulator's queue, which the service writes.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  /// §III-E-4 extension (requires params.population_estimation):
  /// estimated number of participating nodes = count of distinct live
  /// pseudonyms this node has seen in gossip (every participant owns
  /// exactly one live pseudonym at a time, so in a small system the
  /// count converges to |U| from below). Own pseudonym included.
  std::size_t estimated_population() const;

 private:
  /// Own pseudonym TTL management (§III-C).
  void ensure_own_pseudonym();
  void schedule_renewal_alarm();
  double current_lifetime() const;

  OverlayNode(Arena* arena, NodeId id, const OverlayParams& params,
              std::vector<NodeId> trusted_neighbors, NodeEnvironment& env,
              Rng rng);

  /// Merges a received set into cache + sampler. `sent` is this
  /// node's half of the exchange (CYCLON victim preference).
  void merge_received(const std::vector<PseudonymRecord>& received,
                      std::span<const PseudonymRecord> sent);

  /// Builds this node's half of a shuffle exchange.
  std::vector<PseudonymRecord> compose_shuffle_set();

  /// Defense helpers (§III-E): the longest remaining lifetime a
  /// received record may claim, and the per-peer rate-limit gate.
  double max_accepted_lifetime() const;
  bool admit_request(NodeId from, sim::Time now);

  /// Records a gossiped pseudonym for the population estimator.
  void note_seen(const PseudonymRecord& record, sim::Time now);

  NodeId id_;
  // By value: nodes outlive most callers' params objects (several
  // tests pass temporaries), and the struct is small.
  const OverlayParams params_;
  std::vector<NodeId> trusted_;
  NodeEnvironment& env_;
  Rng rng_;

  PseudonymCache cache_;
  SlotSampler sampler_;

  std::optional<PseudonymRecord> own_;
  /// All values this node has ever owned: received copies of them are
  /// self-addressed and never cached or sampled.
  std::vector<PseudonymValue> own_history_;
  bool online_ = false;
  bool ever_started_ = false;
  std::uint64_t renewal_epoch_ = 0;

  /// The one in-flight initiated exchange. Timeout-scoped: a response
  /// only merges while its exchange is pending, so a lost response
  /// cannot leak the sent set into a later exchange and a duplicated
  /// response cannot merge twice. The sent set itself lives in
  /// `pending_sent_` (one fixed block per node — there is at most one
  /// pending exchange at a time, so no per-exchange allocation).
  struct PendingExchange {
    std::uint64_t id = 0;  // monotone exchange id, guards stale timers
    NodeId target = 0;
    std::size_t retries_used = 0;
    double timeout = 0.0;  // current backoff interval
    /// Sim time the exchange was initiated — feeds the live
    /// shuffle-latency histogram at completion. Part of the
    /// trajectory state regardless of telemetry, so observing it
    /// cannot perturb a run.
    double started = 0.0;
  };

  void begin_exchange(NodeId target, std::vector<PseudonymRecord> set);
  void arm_exchange_timer();
  void handle_exchange_timeout(std::uint64_t exchange_id);
  void abort_pending_exchange();

  std::optional<PendingExchange> pending_;
  /// The pending exchange's sent set (CYCLON victim preference),
  /// re-used verbatim by retransmissions. Capacity shuffle_length —
  /// the most compose_shuffle_set() can produce. Contents stay intact
  /// through merge_received after pending_ is cleared (nothing there
  /// composes a new set), so the merge reads the block directly.
  FixedBlock<PseudonymRecord> pending_sent_;
  std::uint64_t next_exchange_id_ = 0;

  /// Adaptive-lifetime extension state.
  sim::Time offline_since_ = 0.0;
  double offline_ewma_;

  /// §III-E-4 population estimator: live pseudonym values seen in
  /// gossip, with their expiries (purged opportunistically).
  std::vector<PseudonymRecord> seen_pseudonyms_;
  FlatMap64 seen_index_;

  /// Per-peer request-acceptance window (rate-limit defense). Only
  /// populated when params.peer_rate_limit > 0.
  struct RateBucket {
    sim::Time window_start = -1e18;
    std::uint32_t accepted = 0;
  };
  std::unordered_map<NodeId, RateBucket> request_rate_;

  Counters counters_;
};

}  // namespace ppo::overlay
