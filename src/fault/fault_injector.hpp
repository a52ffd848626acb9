// FaultInjector: schedules correlated node-crash bursts materialized
// from a FaultPlan (fault_stream.hpp) into the simulator. It drives
// the victims through narrow hooks — in practice the churn driver's
// fail/revive — so crash faults and availability churn share one
// seeded plan and the fault layer stays decoupled from the overlay
// orchestration.
//
// Everything is data + scheduled events: with a fixed plan the
// injected fault timeline is identical on every run. Each event is
// scheduled *for its victim*, so it runs on the victim's shard and the
// timeline is the same for every shard count. The other service-level
// outages need no events: pseudonym blackouts are windows the overlay
// service consults (ServiceFaults, fault_plan.hpp), and relay outages
// are MixNetwork::schedule_crash windows.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_stream.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::fault {

class FaultInjector final : public sim::EventHandler {
 public:
  /// Node-crash targets — in practice ChurnDriver::fail_permanently /
  /// revive. fail_node is required; revive_node only when some event
  /// revives its victim.
  struct Hooks {
    std::function<void(graph::NodeId)> fail_node;
    std::function<void(graph::NodeId)> revive_node;
  };

  struct Counters {
    std::uint64_t nodes_crashed = 0;
    std::uint64_t nodes_revived = 0;
  };

  FaultInjector(sim::ShardedSimulator& sim, Hooks hooks,
                std::vector<NodeCrashEvent> node_crashes);

  /// Schedules every crash and revival. Call once, before running the
  /// simulation past the earliest fault instant.
  void arm();

  const Counters& counters() const { return counters_; }

  // --- sim::EventHandler: a victim's crash or revival. Outside the
  // checkpoint scope (crash bursts stay on the cold path). ---
  void fire(const sim::Event& event) override;
  std::uint32_t handler_tag() const override { return 0x46494E4Au; }

 private:
  sim::ShardedSimulator& sim_;
  sim::HandlerId handler_;
  Hooks hooks_;
  std::vector<NodeCrashEvent> node_crashes_;
  bool armed_ = false;
  Counters counters_;
};

}  // namespace ppo::fault
