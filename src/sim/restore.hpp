// Backend-generic event restoration. Components journal their pending
// events as (fire time, ticket, rebuild recipe); at restore they hold
// only a SimulatorBackend& and need to re-insert the event under its
// original canonical key on the sharded core they run on.
#pragma once

#include "sim/backend.hpp"

namespace ppo::sim {

/// Re-inserts a pending event on the ShardedSimulator behind `sim`
/// under its full (origin, seq) key, routed to `target`'s shard.
/// Aborts on any other backend (checkpointing is only defined for the
/// sharded core).
void restore_event_any(SimulatorBackend& sim, Time t, EventTicket ticket,
                       ActorId target, EventFn fn);

}  // namespace ppo::sim
