// Test-only event handler that runs closures: each scheduled closure
// is stored in a table and its index travels as the event's `a`
// argument. Lets the simulator tests keep writing their scenarios as
// lambdas; nothing under src/ schedules closures.
#pragma once

#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/sharded_simulator.hpp"

namespace ppo::sim {

class Closures final : public EventHandler {
 public:
  explicit Closures(ShardedSimulator& sim)
      : sim_(sim), id_(sim.add_handler(*this)) {}

  HandlerId id() const { return id_; }

  void at(ActorId actor, Time t, std::function<void()> fn) {
    sim_.schedule_at_for(actor, t, id_, 0, store(std::move(fn)));
  }
  void after_for(ActorId actor, Time delay, std::function<void()> fn) {
    sim_.schedule_for(actor, delay, id_, 0, store(std::move(fn)));
  }
  void after(Time delay, std::function<void()> fn) {
    sim_.schedule_after(delay, id_, 0, store(std::move(fn)));
  }

  void fire(const Event& event) override {
    std::function<void()> fn;
    {
      // Shard workers schedule and fire concurrently at K > 1.
      const std::lock_guard<std::mutex> lock(mutex_);
      fn = std::move(fns_[event.a]);
    }
    fn();
  }
  std::uint32_t handler_tag() const override { return 0x54455354u; }

 private:
  std::uint64_t store(std::function<void()> fn) {
    const std::lock_guard<std::mutex> lock(mutex_);
    fns_.push_back(std::move(fn));
    return fns_.size() - 1;
  }

  ShardedSimulator& sim_;
  HandlerId id_;
  std::mutex mutex_;
  std::vector<std::function<void()>> fns_;
};

}  // namespace ppo::sim
