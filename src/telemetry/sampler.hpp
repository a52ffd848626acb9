// Wall-clock telemetry sampling: a ticker thread snapshots the live
// MetricsRegistry every interval, keeps the most recent samples in a
// bounded ring buffer (served at /samples) and streams every sample as
// one JSONL line to an optional time-series file (`--telemetry-out`).
//
// Strictly wall-clock-side: the ticker reads registry snapshots only —
// it never touches the simulation, so sampling on or off cannot change
// a trajectory.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "runner/json.hpp"

namespace ppo::telemetry {

struct TelemetrySample {
  double wall_seconds = 0.0;  // since the ticker started
  obs::MetricsRegistry::Snapshot metrics;
};

/// One JSON object per sample: obs::to_json of the snapshot (the
/// renderer of every report's `metrics` block — counters, gauges and
/// `streaming` quantile summaries) plus `wall_seconds`. dump() of the
/// result is a single line — the JSONL time-series row format.
runner::Json to_json(const TelemetrySample& sample);

/// Fixed-capacity ring of the most recent samples, oldest first.
class SampleRing {
 public:
  explicit SampleRing(std::size_t capacity);

  void push(TelemetrySample sample);

  /// Oldest-to-newest copy of the resident samples.
  std::vector<TelemetrySample> recent() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t total_pushed() const;

  /// The resident samples as JSONL (one line per sample), the
  /// /samples endpoint payload.
  std::string recent_jsonl() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TelemetrySample> slots_;
  std::size_t next_ = 0;        // ring write position once full
  std::uint64_t pushed_ = 0;
};

/// The sampling thread. Construction starts it; stop() (or the
/// destructor) takes one final sample and joins, so even runs shorter
/// than the interval export at least one row.
class TelemetryTicker {
 public:
  struct Options {
    double interval_seconds = 1.0;
    std::size_t ring_capacity = 600;
    /// Append-mode JSONL sink; empty = ring buffer only.
    std::string jsonl_path;
  };

  TelemetryTicker(const obs::MetricsRegistry& registry, Options options);
  ~TelemetryTicker();

  TelemetryTicker(const TelemetryTicker&) = delete;
  TelemetryTicker& operator=(const TelemetryTicker&) = delete;

  void stop();

  const SampleRing& ring() const { return ring_; }
  std::uint64_t samples_taken() const {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  void take_sample();

  const obs::MetricsRegistry& registry_;
  Options options_;
  SampleRing ring_;
  std::ofstream jsonl_;
  std::mutex sample_mutex_;  // serializes ticker and final stop sample
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> samples_{0};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  // guarded by stop_mutex_
  std::thread thread_;
};

}  // namespace ppo::telemetry
