// Deterministic Byzantine adversary models (paper §III-E). An
// AdversaryPlan is pure seeded data: it names the fraction of overlay
// nodes playing each attacker role plus the behavioural knobs, and
// materialize_roles() expands it into a concrete role assignment as a
// pure function of (plan, num_nodes) — identical for every shard
// count K, mirroring how
// fault::materialize_node_crashes expands crash bursts.
//
// Roles (all internal/colluding attackers in the §III-E sense):
//  - cache polluters flood shuffle sets with forged records up to the
//    ℓ cap (and shuffle polluter_tick_multiplier× faster);
//  - eclipse attackers mint pseudonyms numerically close to a victim's
//    sampler reference values R to capture its slots, and aim their
//    shuffle requests at the victim;
//  - selective droppers (shuffle defectors) accept gossip but never
//    reciprocate: their responses are swallowed before the transport;
//  - replayers re-inject previously observed (typically expired)
//    records with forged extended expiries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ppo::adversary {

using NodeId = graph::NodeId;

enum class Role : std::uint8_t {
  kHonest = 0,
  kCachePolluter,
  kEclipser,
  kDropper,
  kReplayer,
};

/// Stable lower-case name for tables, traces and JSON.
const char* role_name(Role role);

struct AdversaryPlan {
  double polluter_fraction = 0.0;
  double eclipser_fraction = 0.0;
  double dropper_fraction = 0.0;
  double replayer_fraction = 0.0;

  /// Polluters run their shuffle tick this many times faster than the
  /// honest period (>= 1).
  double polluter_tick_multiplier = 4.0;

  /// Forged/replayed expiries are now + lifetime * U(0.5, factor).
  /// The > 1.0 portion is catchable by expiry validation
  /// (OverlayParams::validate_received); the rest passes validation
  /// but resolves to nothing — pure pollution.
  double forged_lifetime_factor = 2.0;

  /// Eclipse records injected per outgoing shuffle set.
  std::size_t eclipse_records = 8;
  /// Minted eclipse values land within this distance of a victim
  /// sampler reference (>= 1).
  std::uint64_t eclipse_offset = 1ull << 12;
  /// Records a replayer remembers for re-injection.
  std::size_t replay_memory = 64;

  std::uint64_t seed = 0xADE5;

  /// True iff any role fraction is positive. A disabled plan must be
  /// bit-identical to no plan at all: services skip engine
  /// construction entirely when this is false.
  bool enabled() const;

  /// Aborts (PPO_CHECK) on out-of-range knobs.
  void validate() const;
};

/// No victim assigned (eclipser with no honest node left to target).
inline constexpr NodeId kNoVictim = static_cast<NodeId>(-1);

struct RoleAssignment {
  std::vector<Role> roles;     // size num_nodes
  std::vector<NodeId> victim;  // eclipser -> honest victim, else kNoVictim
  std::size_t attacker_count = 0;
};

/// Expands the plan over `num_nodes` nodes. Role counts are
/// round(fraction * num_nodes) per role, assigned over a seeded
/// shuffle of the id space so roles are disjoint; every eclipser draws
/// a victim among the remaining honest nodes.
RoleAssignment materialize_roles(const AdversaryPlan& plan,
                                 std::size_t num_nodes);

}  // namespace ppo::adversary
