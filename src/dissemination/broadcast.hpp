// Application-layer data dissemination over an overlay graph — the
// workloads the paper's introduction motivates (micro-news, mailing
// lists, group chat). Two protocols the paper names (§I): controlled
// flooding and epidemic (rumor-style) dissemination.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace ppo::dissem {

using graph::NodeId;

struct BroadcastOptions {
  /// Per-link delivery latency window (shuffling periods).
  double min_latency = 0.01;
  double max_latency = 0.05;

  /// Flooding: 0 = forward to ALL neighbors (controlled flooding via
  /// duplicate suppression). k > 0 = epidemic push to k random
  /// neighbors on first receipt.
  std::size_t fanout = 0;

  /// Messages stop propagating after this many hops (<0 = unlimited).
  int max_hops = -1;
};

struct BroadcastResult {
  std::size_t online_nodes = 0;   // reachable population
  std::size_t reached = 0;        // online nodes that got the message
  double coverage = 0.0;          // reached / online_nodes
  double mean_latency = 0.0;      // over reached nodes (source excluded)
  double max_latency = 0.0;
  std::uint64_t messages_sent = 0;
  std::uint32_t max_hops_used = 0;
};

/// Broadcasts one message from `source` across `g`, where only nodes
/// in `online` participate (offline endpoints drop traffic). Runs its
/// own one-shard event simulation to quiescence, drawing fan-out and
/// latencies from `rng` in delivery order, and reports delivery stats.
/// `source` must be online.
BroadcastResult broadcast(const graph::Graph& g,
                          const graph::NodeMask& online, NodeId source,
                          const BroadcastOptions& options, Rng& rng);

}  // namespace ppo::dissem
