// Pseudonyms (§III): a pseudonym is a random p-bit sequence acting as
// an anonymous address for its owner, valid until an expiry time.
// What circulates in gossip messages is the (value, expiry) pair; the
// owner mapping lives only inside the pseudonym service.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace ppo::privacylink {

/// Node identity — the protected information. Only the (ideal)
/// services ever map pseudonyms back to it.
using NodeId = graph::NodeId;

/// The p-bit pseudonym value. p <= 64; the sampler's closeness metric
/// operates on this integer representation (§III-D assumes pseudonyms
/// are random bit sequences).
using PseudonymValue = std::uint64_t;

/// What peers learn about a pseudonym through gossip: the address and
/// when it stops being routable. The owner is never part of the
/// record.
struct PseudonymRecord {
  PseudonymValue value = 0;
  sim::Time expiry = 0.0;

  bool valid_at(sim::Time now) const { return now < expiry; }

  friend bool operator==(const PseudonymRecord&,
                         const PseudonymRecord&) = default;
};

/// Draws a fresh random p-bit value. `bits` in [8, 64].
PseudonymValue random_pseudonym_value(Rng& rng, unsigned bits);

/// |a - b| on the value line — the sampler's closeness measure.
std::uint64_t pseudonym_distance(PseudonymValue a, PseudonymValue b);

}  // namespace ppo::privacylink
