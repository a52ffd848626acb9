// Vocabulary of the simulation core (sim::ShardedSimulator): virtual
// time, event callbacks, actors and event tickets. Components that
// only name these types include this header instead of the simulator.
#pragma once

#include <cstdint>
#include <functional>

namespace ppo::sim {

/// Virtual time. The unit throughout the library is one shuffling
/// period (paper §IV).
using Time = double;

using EventFn = std::function<void()>;

/// Identifies the actor (overlay node) an event belongs to. Actor ids
/// coincide with graph::NodeId in practice.
using ActorId = std::uint32_t;

/// Sentinel origin of events scheduled outside any actor's context
/// (setup code, the measurement loop), which the simulator only
/// accepts between windows.
inline constexpr ActorId kExternalActor = 0xFFFFFFFFu;

/// Identity of a scheduled event inside the simulator's deterministic
/// order: the actor context that scheduled it (kExternalActor for
/// external schedules) and the per-origin sequence number.
/// Checkpointing components record the ticket of each pending event
/// they own so restore can re-insert it at the exact same position in
/// the order (ties at equal times break by ticket).
struct EventTicket {
  ActorId origin = kExternalActor;
  std::uint64_t seq = 0;
};

}  // namespace ppo::sim
