// Vocabulary of the simulation core (sim::ShardedSimulator): virtual
// time, actors, handler ids and event payloads. Components that only
// name these types include this header instead of the simulator.
#pragma once

#include <cstdint>
#include <vector>

namespace ppo::sim {

/// Virtual time. The unit throughout the library is one shuffling
/// period (paper §IV).
using Time = double;

/// Identifies the actor (overlay node) an event belongs to. Actor ids
/// coincide with graph::NodeId in practice.
using ActorId = std::uint32_t;

/// Sentinel origin of events scheduled outside any actor's context
/// (setup code, the measurement loop), which the simulator only
/// accepts between windows.
inline constexpr ActorId kExternalActor = 0xFFFFFFFFu;

/// Index of an EventHandler registered with
/// ShardedSimulator::add_handler, in registration order.
using HandlerId = std::uint16_t;

/// The owned bytes an event carries (crypto::Bytes is the same type).
/// Timers leave it empty.
using Payload = std::vector<std::uint8_t>;

}  // namespace ppo::sim
