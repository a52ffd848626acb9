// Discrete-event simulation core. The paper's evaluation runs on "a
// custom event-based simulation environment" where events occur at
// arbitrary times within a shuffling period; this engine provides
// exactly that: a virtual clock, a stable-ordered pending-event heap
// and deterministic execution.
//
// The overlay service runs on sim::ShardedSimulator (K = 1 is its
// serial case). This single-queue loop drives the work that has no
// overlay: the static trust/ER baselines, the dissemination flood,
// and the lower layers' unit tests.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/check.hpp"
#include "sim/backend.hpp"

namespace ppo::sim {

/// One global queue, ties broken by scheduling order. See backend.hpp
/// for the interface contract and sharded_simulator.hpp for the
/// backend the overlay service runs on.
class Simulator final : public SimulatorBackend {
 public:
  Time now() const override { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Events at equal
  /// times run in scheduling order (stable).
  void schedule_at(Time t, EventFn fn) override;

  /// One queue, no shards: the actor is ignored.
  void schedule_at_for(ActorId /*actor*/, Time t, EventFn fn) override {
    schedule_at(t, std::move(fn));
  }

  /// Runs events with time <= `end`, then advances the clock to
  /// `end`. Returns the number of events executed.
  std::size_t run_until(Time end);

  /// Runs until the queue drains or `max_events` executed.
  std::size_t run_all(std::size_t max_events = kDefaultEventBudget);

  /// Executes exactly the next pending event, if any; returns whether
  /// one ran.
  bool step();

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t events_executed() const { return executed_; }

  /// Drops all pending events; the clock is unchanged.
  void clear();

  static constexpr std::size_t kDefaultEventBudget = 500'000'000;

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void execute_next();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

}  // namespace ppo::sim
