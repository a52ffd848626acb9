#include "sim/restore.hpp"

#include <utility>

#include "common/check.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::sim {

void restore_event_any(SimulatorBackend& sim, Time t, EventTicket ticket,
                       ActorId target, EventFn fn) {
  auto* sharded = dynamic_cast<ShardedSimulator*>(&sim);
  PPO_CHECK_MSG(sharded != nullptr,
                "checkpoint restore needs the sharded simulator");
  sharded->restore_event(t, ticket.origin, ticket.seq, target, std::move(fn));
}

}  // namespace ppo::sim
