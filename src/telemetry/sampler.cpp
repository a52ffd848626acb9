#include "telemetry/sampler.hpp"

#include <utility>

namespace ppo::telemetry {

runner::Json to_json(const TelemetrySample& sample) {
  runner::Json doc = obs::to_json(sample.metrics);
  doc["wall_seconds"] = sample.wall_seconds;
  return doc;
}

SampleRing::SampleRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SampleRing::push(TelemetrySample sample) {
  std::lock_guard lock(mutex_);
  if (slots_.size() < capacity_) {
    slots_.push_back(std::move(sample));
  } else {
    slots_[next_] = std::move(sample);
    next_ = (next_ + 1) % capacity_;
  }
  ++pushed_;
}

std::vector<TelemetrySample> SampleRing::recent() const {
  std::lock_guard lock(mutex_);
  std::vector<TelemetrySample> out;
  out.reserve(slots_.size());
  // Once the ring is full, next_ points at the oldest slot.
  for (std::size_t i = 0; i < slots_.size(); ++i)
    out.push_back(slots_[(next_ + i) % slots_.size()]);
  return out;
}

std::size_t SampleRing::size() const {
  std::lock_guard lock(mutex_);
  return slots_.size();
}

std::uint64_t SampleRing::total_pushed() const {
  std::lock_guard lock(mutex_);
  return pushed_;
}

std::string SampleRing::recent_jsonl() const {
  std::string out;
  for (const TelemetrySample& sample : recent()) {
    out += to_json(sample).dump();
    out += '\n';
  }
  return out;
}

TelemetryTicker::TelemetryTicker(const obs::MetricsRegistry& registry,
                                 Options options)
    : registry_(registry),
      options_(options),
      ring_(options.ring_capacity) {
  if (!options_.jsonl_path.empty())
    jsonl_.open(options_.jsonl_path, std::ios::out | std::ios::trunc);
  thread_ = std::thread([this] { loop(); });
}

TelemetryTicker::~TelemetryTicker() { stop(); }

void TelemetryTicker::stop() {
  {
    std::lock_guard lock(stop_mutex_);
    if (stopping_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final sample so short runs still export a row, and the last row
  // reflects the finished state.
  take_sample();
  if (jsonl_.is_open()) jsonl_.flush();
}

void TelemetryTicker::take_sample() {
  std::lock_guard lock(sample_mutex_);
  TelemetrySample sample;
  sample.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
  sample.metrics = registry_.snapshot();
  if (jsonl_.is_open()) {
    jsonl_ << to_json(sample).dump() << '\n';
    jsonl_.flush();  // live tail-ability beats buffering here
  }
  ring_.push(std::move(sample));
  samples_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryTicker::loop() {
  const auto interval = std::chrono::duration<double>(
      options_.interval_seconds > 0.0 ? options_.interval_seconds : 1.0);
  std::unique_lock lock(stop_mutex_);
  while (!stopping_) {
    if (stop_cv_.wait_for(lock, interval, [this] { return stopping_; }))
      break;
    lock.unlock();
    take_sample();
    lock.lock();
  }
}

}  // namespace ppo::telemetry
