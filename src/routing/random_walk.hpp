// Pseudonym-addressed unicast by random walk — the "additional
// routing layer" the paper names as a dissemination option (§I).
//
// A node that wants to message pseudonym P (learned, e.g., from an
// application-level reply address) usually has no link to it. The
// message performs a random walk over overlay links; any intermediate
// node that holds P among its own pseudonym links — or owns P — can
// complete delivery. Because the maintained overlay approximates a
// random graph in which P is sampled by ~S_avg other nodes, short
// walks find a holder with high probability; on the bare trust graph
// the same walk must stumble on the owner itself.
//
// Privacy: the walk carries only the target pseudonym; relays learn
// neither the sender's nor the receiver's identity (§III's link
// guarantees), at the usual cost of TTL-bounded extra traffic.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "overlay/sharded_service.hpp"

namespace ppo::routing {

using graph::NodeId;
using privacylink::PseudonymValue;

struct WalkOptions {
  /// Maximum hops per walker before the message is dropped.
  std::size_t ttl = 32;
  /// Independent parallel walkers (duplicate deliveries suppressed).
  std::size_t walkers = 1;
  /// Per-hop latency window (shuffling periods).
  double min_latency = 0.01;
  double max_latency = 0.05;
  /// Baseline mode: walk across trusted links only (what a bare F2F
  /// network could do) instead of all overlay links.
  bool trusted_links_only = false;
};

struct WalkResult {
  bool delivered = false;
  /// Hops of the first successful walker (0 = source held the link).
  std::size_t hops = 0;
  /// Simulated latency of the successful walker.
  double latency = 0.0;
  /// Total messages across all walkers (cost).
  std::uint64_t messages = 0;
};

/// Routes one message from `source` (must be online) toward the node
/// owning `target`. Walks step only across online nodes; delivery
/// succeeds when a current holder of `target` (or its owner) is
/// reached while the owner is online.
WalkResult route_to_pseudonym(overlay::ShardedOverlayService& service,
                              NodeId source, PseudonymValue target,
                              const WalkOptions& options, Rng& rng);

}  // namespace ppo::routing
