// Cancellable periodic task on top of the ShardedSimulator — used for
// shuffle ticks and anti-entropy timers.
#pragma once

#include <memory>

#include "sim/sharded_simulator.hpp"

namespace ppo::sim {

/// Handle to a periodic task; destroying or cancelling it stops the
/// task after any in-flight event fires (the event checks liveness).
class PeriodicTask {
 public:
  PeriodicTask() = default;

  /// Starts `fn` at now + `phase`, then every `period`. Every tick is
  /// scheduled for `actor`, so it runs on that actor's shard.
  static PeriodicTask start(ShardedSimulator& sim, Time phase, Time period,
                            EventFn fn, ActorId actor);

  bool active() const { return state_ && state_->active; }
  void cancel();

  /// Rebuilds a task whose next tick was pending when a checkpoint was
  /// taken: re-inserts the tick at its recorded (next_fire, ticket)
  /// position without drawing anything; the chain then continues
  /// normally (each tick re-schedules the next).
  static PeriodicTask restore(ShardedSimulator& sim, Time next_fire,
                              EventTicket ticket, Time period, EventFn fn,
                              ActorId actor);

  /// When a checkpoint is taken between ticks, these name the pending
  /// tick: its absolute fire time and its scheduling ticket.
  Time next_fire() const { return state_ ? state_->next_fire : 0.0; }
  EventTicket ticket() const {
    return state_ ? state_->ticket : EventTicket{};
  }

  /// Shared liveness flag plus the pending tick's identity; public so
  /// the scheduling machinery in the implementation file can reference
  /// the type.
  struct State {
    bool active = true;
    Time next_fire = 0.0;
    EventTicket ticket;
  };

 private:
  std::shared_ptr<State> state_;
};

}  // namespace ppo::sim
