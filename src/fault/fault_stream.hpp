// Materialization of a FaultPlan's correlated node-crash bursts into
// concrete (node, crash time, revival time) events. Victim selection
// is a pure function of the plan seed and the node count, so the same
// plan crashes the same nodes for every shard count — the
// property that lets crash faults and availability churn share one
// seeded plan (FaultInjector drives both through the churn driver).
#pragma once

#include <vector>

#include "fault/fault_plan.hpp"
#include "graph/graph.hpp"

namespace ppo::fault {

struct NodeCrashEvent {
  graph::NodeId node = 0;
  double at = 0.0;
  double revive_at = -1.0;  // < 0: never
};

/// Expands plan.node_crashes into per-node events. Victims of each
/// burst are sampled without replacement from [0, num_nodes), from an
/// RNG derived off (plan.seed, burst index); bursts are independent,
/// so reordering one spec never changes another's victims. Returned
/// events are sorted by (at, node).
std::vector<NodeCrashEvent> materialize_node_crashes(const FaultPlan& plan,
                                                     std::size_t num_nodes);

}  // namespace ppo::fault
