#include "sim/simulator.hpp"

#include <cmath>
#include <utility>

#include "common/simtime.hpp"

namespace ppo::sim {

void Simulator::schedule_at(Time t, EventFn fn) {
  PPO_CHECK_MSG(std::isfinite(t), "event time must be finite");
  PPO_CHECK_MSG(t >= now_, "cannot schedule into the past");
  PPO_CHECK_MSG(static_cast<bool>(fn), "event callback must be callable");
  queue_.push(Entry{t, next_seq_++, std::move(fn)});
}

void Simulator::execute_next() {
  // Move the entry out before popping so the callback may schedule
  // more events (which mutates the queue).
  Entry entry = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  now_ = entry.time;
  set_sim_time_context(now_);
  ++executed_;
  entry.fn();
}

std::size_t Simulator::run_until(Time end) {
  PPO_CHECK_MSG(end >= now_, "cannot run backwards");
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().time <= end) {
    execute_next();
    ++count;
  }
  now_ = end;
  set_sim_time_context(now_);
  return count;
}

std::size_t Simulator::run_all(std::size_t max_events) {
  std::size_t count = 0;
  while (!queue_.empty() && count < max_events) {
    execute_next();
    ++count;
  }
  PPO_CHECK_MSG(queue_.empty(), "event budget exhausted before quiescence");
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  execute_next();
  return true;
}

void Simulator::clear() {
  while (!queue_.empty()) queue_.pop();
}

}  // namespace ppo::sim
