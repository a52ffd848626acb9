#include "fault/fault_injector.hpp"

#include <utility>

#include "common/check.hpp"

namespace ppo::fault {

namespace {
enum Kind : std::uint8_t { kCrash = 0, kRevive = 1 };
}  // namespace

FaultInjector::FaultInjector(sim::ShardedSimulator& sim, Hooks hooks,
                             std::vector<NodeCrashEvent> node_crashes)
    : sim_(sim),
      handler_(sim.add_handler(*this)),
      hooks_(std::move(hooks)),
      node_crashes_(std::move(node_crashes)) {
  if (node_crashes_.empty()) return;
  PPO_CHECK_MSG(static_cast<bool>(hooks_.fail_node),
                "node crashes need the fail_node hook");
  for (const NodeCrashEvent& c : node_crashes_)
    if (c.revive_at >= 0.0)
      PPO_CHECK_MSG(static_cast<bool>(hooks_.revive_node),
                    "node revivals need the revive_node hook");
}

void FaultInjector::arm() {
  PPO_CHECK_MSG(!armed_, "fault injector already armed");
  armed_ = true;

  // Each crash is scheduled for its victim, so it executes on the
  // victim's shard and only touches that node's churn state. The
  // counters are bumped at arm time (the timeline is fixed data),
  // keeping the event bodies free of shared writes.
  for (const NodeCrashEvent& c : node_crashes_) {
    sim_.schedule_at_for(c.node, c.at, handler_, kCrash);
    ++counters_.nodes_crashed;
    if (c.revive_at >= 0.0) {
      sim_.schedule_at_for(c.node, c.revive_at, handler_, kRevive);
      ++counters_.nodes_revived;
    }
  }
}

void FaultInjector::fire(const sim::Event& event) {
  if (event.kind == kCrash)
    hooks_.fail_node(event.target);
  else
    hooks_.revive_node(event.target);
}

}  // namespace ppo::fault
