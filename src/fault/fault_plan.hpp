// Deterministic fault-injection plans. A FaultPlan is pure data: the
// per-message adversities (loss, delay jitter, duplication, held-back
// reordering) and the scheduled adversities (link blackout windows,
// network partitions) a simulated network should suffer, plus the seed
// the fault stream is derived from. The same plan + seed always yields
// the same fault pattern, so faulty experiments stay bit-reproducible
// and sweepable on the ppo_runner pool.
//
// Plans are consumed by FaultyTransport (per-message + link-level
// faults) and FaultInjector (node-crash bursts, see
// fault_injector.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ppo::fault {

/// Half-open time interval [start, end) in shuffling periods.
struct Window {
  double start = 0.0;
  double end = 0.0;

  bool contains(double t) const { return t >= start && t < end; }
};

/// A temporary network split: while the window is active, messages
/// with exactly one endpoint inside `group` are dropped. Traffic
/// within a side flows normally, so the overlay heals itself once the
/// split ends.
struct Partition {
  Window window;
  std::vector<graph::NodeId> group;
};

/// Directional per-link loss override: messages from `from` to `to`
/// use `drop_prob` instead of the plan-wide drop_probability. The
/// reverse direction is unaffected, so asymmetric links (one-way
/// packet loss, as real access networks exhibit) are expressible.
struct LinkDropOverride {
  graph::NodeId from = 0;
  graph::NodeId to = 0;
  double drop_prob = 0.0;
};

/// Correlated node-crash burst: at time `at`, `count` nodes (sampled
/// deterministically from the plan seed) fail permanently; if
/// `revive_at` >= 0 they all come back then. Consumed by
/// FaultInjector, which drives them through the churn driver so crash
/// faults and availability churn share one seeded plan.
struct NodeCrashSpec {
  double at = 0.0;
  std::size_t count = 0;
  double revive_at = -1.0;  // < 0: never
};

/// Bursty loss via a two-state Gilbert-Elliott chain: the network is
/// in a "good" or "bad" state, switching with the given per-step
/// probabilities, and the active state's drop probability is ADDED to
/// the plan's per-link loss (clamped to [0,1]). The chain is stepped
/// on a fixed grid and pre-materialized from the plan seed at
/// wrap time, so queries are read-only — the profile is K-invariant
/// by construction.
struct GilbertElliottProfile {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.0;
  double good_drop = 0.0;  // extra loss while in the good state
  double bad_drop = 0.0;   // extra loss while in the bad state
  double step = 1.0;       // chain step, in shuffling periods
  /// Time the materialized chain must cover (>= the run length);
  /// queries past it stay in the last state.
  double horizon = 0.0;

  bool enabled() const {
    return horizon > 0.0 && (good_drop > 0.0 || bad_drop > 0.0);
  }

  /// Long-run fraction of steps spent in the bad state.
  double stationary_bad() const {
    const double denom = p_good_to_bad + p_bad_to_good;
    return denom > 0.0 ? p_good_to_bad / denom : 0.0;
  }
};

/// Diurnal loss: a sinusoidal extra drop probability
/// amplitude * 0.5 * (1 + sin(2*pi*(t + phase) / period)), added to
/// the per-link loss (clamped to [0,1]). Pure function of time —
/// trivially K-invariant.
struct DiurnalProfile {
  double amplitude = 0.0;  // peak extra loss, in [0,1]
  double period = 0.0;     // full day length, in shuffling periods
  double phase = 0.0;      // shifts where the peak falls

  bool enabled() const { return amplitude > 0.0 && period > 0.0; }
};

struct FaultPlan {
  /// Each message is lost with this probability (drawn independently
  /// per message, including duplicates and retransmissions).
  double drop_probability = 0.0;

  /// Each message spawns one extra copy with this probability. The
  /// copy traverses the network independently (own loss/delay draws).
  double duplicate_probability = 0.0;

  /// Extra in-network delay added to every delivery, drawn uniformly
  /// from [jitter_min, jitter_max]. Zero width at zero = no jitter.
  double jitter_min = 0.0;
  double jitter_max = 0.0;

  /// With this probability a message is additionally held back for a
  /// delay in [reorder_min_delay, reorder_max_delay] before delivery,
  /// letting later messages overtake it.
  double reorder_probability = 0.0;
  double reorder_min_delay = 0.0;
  double reorder_max_delay = 0.0;

  /// Total link blackouts: every message sent while a window is
  /// active is lost.
  std::vector<Window> link_outages;

  /// Scheduled network splits (see Partition).
  std::vector<Partition> partitions;

  /// Directional per-link loss overrides (see LinkDropOverride). A
  /// later entry for the same (from, to) pair wins.
  std::vector<LinkDropOverride> link_drop_overrides;

  /// Time-varying loss profiles. Both compose additively with the
  /// per-link loss (including overrides) and with each other; the sum
  /// is clamped to [0,1] per message.
  GilbertElliottProfile gilbert_elliott;
  DiurnalProfile diurnal;

  /// Correlated node-crash bursts (see NodeCrashSpec). Not a
  /// transport fault: FaultInjector materializes the victims and
  /// drives them through the churn driver.
  std::vector<NodeCrashSpec> node_crashes;

  /// Seed of the fault decision stream. Deliberately independent of
  /// the simulation's own RNG tree: wrapping a transport never
  /// perturbs the protocol's random draws.
  std::uint64_t seed = 0x5EED;

  /// Fate streams are always derived per (seed, from, to, message
  /// index), so fault patterns depend only on a link's own traffic.
  /// The field stays for plan code that sets it; validate() refuses
  /// false, since no shared fate stream exists.
  bool per_link_streams = true;

  /// True when any transport-level fault can ever fire. An all-zero
  /// plan is inert and FaultyTransport guarantees bit-identical
  /// behaviour to the bare inner transport. Node crashes are not
  /// transport faults and do not count (see has_node_crashes()).
  bool enabled() const;

  bool has_node_crashes() const { return !node_crashes.empty(); }

  /// Throws CheckError on nonsense (negative probabilities/delays,
  /// inverted windows, per_link_streams unset).
  void validate() const;

  /// Is any link blackout active at time t?
  bool outage_at(double t) const;
};

/// Scheduled service-level adversities, installed on the overlay
/// service as data before a run.
struct ServiceFaults {
  /// While a window is active, pseudonym resolution fails (lookups
  /// return "unknown"); minting is unaffected — a node's pseudonym is
  /// generated locally and registered when the service recovers.
  std::vector<Window> pseudonym_blackouts;

  bool empty() const { return pseudonym_blackouts.empty(); }
};

}  // namespace ppo::fault
