// Scheduling interface of the simulation core, extracted so protocol
// components (transports, churn, timers) run unchanged on either
// backend:
//  - sim::ShardedSimulator — the deterministically-parallel core that
//    partitions actors (nodes) into shards and runs them in lockstep
//    epochs (sharded_simulator.hpp); the overlay service runs on it,
//    with K = 1 as the serial case;
//  - sim::Simulator — a single-queue event loop (ties broken by
//    scheduling order) for work without an overlay: static baselines,
//    the dissemination flood, and lower-layer unit tests.
//
// The one addition over a plain event-loop surface is the *actor*
// dimension: schedule_for / schedule_at_for name the node an event
// belongs to, so a sharded backend can route it to that node's shard.
// sim::Simulator ignores the actor.
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

/// Sentinel for events scheduled outside any actor's context (setup
/// code, the measurement loop). Sharded backends only accept it
/// between windows.
inline constexpr ActorId kExternalActor = 0xFFFFFFFFu;

/// Identity of a scheduled event inside a backend's deterministic
/// order: the actor context that scheduled it (kExternalActor for
/// external schedules) and the per-origin sequence
/// number. Checkpointing components record the ticket of each pending
/// event they own so restore can re-insert it at the exact same
/// position in the order (sim ties at equal times break by ticket).
struct EventTicket {
  ActorId origin = kExternalActor;
  std::uint64_t seq = 0;
};

class SimulatorBackend {
 public:
  virtual ~SimulatorBackend() = default;

  /// Current virtual time: the executing event's timestamp while an
  /// event runs, the window/run floor otherwise.
  virtual Time now() const = 0;

  /// Schedules `fn` at absolute time `t` (>= now) in the context of
  /// the actor currently executing (sharded backends route it to that
  /// actor's shard; outside event context they reject it — use
  /// schedule_at_for).
  virtual void schedule_at(Time t, EventFn fn) = 0;

  /// Schedules `fn` at absolute time `t` on `actor`'s queue.
  /// sim::Simulator ignores the actor.
  virtual void schedule_at_for(ActorId actor, Time t, EventFn fn) = 0;

  /// Convenience: `delay` time units from now (delay >= 0).
  void schedule_after(Time delay, EventFn fn);
  void schedule_for(ActorId actor, Time delay, EventFn fn);

  /// Ticket of the most recent schedule_* call made from the calling
  /// context (per shard worker on sharded backends). Checkpoint-aware
  /// components query it right after scheduling an event they intend
  /// to journal. Backends that do not support checkpointing
  /// (sim::Simulator, test doubles) keep the default, which returns an
  /// empty ticket.
  virtual EventTicket last_ticket() const { return {}; }
};

}  // namespace ppo::sim
