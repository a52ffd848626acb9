#include "sim/periodic.hpp"

#include <utility>

#include "common/check.hpp"

namespace ppo::sim {

namespace {

void schedule_tick(ShardedSimulator& sim, Time delay, Time period,
                   ActorId actor, std::shared_ptr<PeriodicTask::State> state,
                   EventFn fn);

struct Tick {
  ShardedSimulator* sim;
  Time period;
  ActorId actor;
  std::shared_ptr<PeriodicTask::State> state;
  EventFn fn;

  void operator()() {
    if (!state->active) return;
    fn();
    if (state->active) schedule_tick(*sim, period, period, actor, state, fn);
  }
};

void schedule_tick(ShardedSimulator& sim, Time delay, Time period,
                   ActorId actor, std::shared_ptr<PeriodicTask::State> state,
                   EventFn fn) {
  PeriodicTask::State* raw = state.get();
  const Time fire = sim.now() + delay;
  sim.schedule_for(actor, delay,
                   Tick{&sim, period, actor, std::move(state), std::move(fn)});
  raw->next_fire = fire;
  raw->ticket = sim.last_ticket();
}

}  // namespace

PeriodicTask PeriodicTask::start(ShardedSimulator& sim, Time phase,
                                 Time period, EventFn fn, ActorId actor) {
  PPO_CHECK_MSG(period > 0.0, "period must be positive");
  PeriodicTask task;
  task.state_ = std::make_shared<State>();
  schedule_tick(sim, phase, period, actor, task.state_, std::move(fn));
  return task;
}

PeriodicTask PeriodicTask::restore(ShardedSimulator& sim, Time next_fire,
                                   EventTicket ticket, Time period,
                                   EventFn fn, ActorId actor) {
  PPO_CHECK_MSG(period > 0.0, "period must be positive");
  PeriodicTask task;
  task.state_ = std::make_shared<State>();
  task.state_->next_fire = next_fire;
  task.state_->ticket = ticket;
  sim.restore_event(next_fire, ticket, actor,
                    Tick{&sim, period, actor, task.state_, std::move(fn)});
  return task;
}

void PeriodicTask::cancel() {
  if (state_) state_->active = false;
}

}  // namespace ppo::sim
