// Named metrics registry: counters, gauges and streaming histograms
// with free-form dimensions (per-series, per-shard, ...). It is the one
// store every report reads: the `metrics` block of each `--json`
// report, the telemetry JSONL rows and the Prometheus exposition of
// the telemetry plane (src/telemetry) all render a snapshot() of it.
//
// Two usage modes share the one class:
//
//  - Scrape-time (the figure benches): populated single-threaded from
//    run results after the simulation finishes. The ordered maps give
//    deterministic layout, so reports diff cleanly.
//
//  - Live (service mode): installed process-wide via
//    install_live_metrics(), then worker threads bump counters and
//    observe() streaming histograms while a wall-clock scrape thread
//    renders concurrent snapshots. Structure (map) mutations and
//    plain counter/gauge writes take a shared_mutex; streaming
//    histogram samples are lock-free atomic increments behind a
//    shared (reader) lock. Every read takes the lock too; snapshot()
//    is the one bulk read path.
//
// The live path is telemetry-only by contract: observations read
// simulation state, never write it, so trajectories are bit-identical
// with a live registry installed or not.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/streaming_histogram.hpp"
#include "runner/json.hpp"

namespace ppo::obs {

/// Dimension list rendered into the metric key, e.g. {{"shard","3"}}.
using MetricDims = std::vector<std::pair<std::string, std::string>>;

/// Prometheus-style key: name alone, or `name{k=v,k2=v2}` with
/// dimensions in the order given.
std::string metric_key(const std::string& name, const MetricDims& dims);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  /// Deep copy at a quiescent point (benches return registries by
  /// value). The source is locked during the copy.
  MetricsRegistry(const MetricsRegistry& other);
  MetricsRegistry& operator=(const MetricsRegistry& other);

  /// Adds to a (creating-on-first-use) counter. Thread-safe.
  void add_counter(const std::string& name, std::uint64_t delta,
                   const MetricDims& dims = {});

  /// Sets a gauge to its latest value. Thread-safe.
  void set_gauge(const std::string& name, double value,
                 const MetricDims& dims = {});

  /// Streaming (log-bucketed, lock-free) histogram cell for live
  /// observation. The reference is stable for the registry's lifetime;
  /// observe() on it is thread-safe against concurrent snapshot().
  StreamingHistogram& streaming(const std::string& name,
                                const MetricDims& dims = {});

  /// One-shot sample into a streaming histogram: shared-lock lookup on
  /// the hot path, creation on first use. Thread-safe.
  void observe(const std::string& name, double value,
               const MetricDims& dims = {});

  std::uint64_t counter(const std::string& key) const;  // 0 if absent
  bool empty() const;

  /// Race-free point-in-time copy of every cell; the read path
  /// (Prometheus rendering, JSONL sampling, to_json).
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, StreamingHistogram::Snapshot> streaming;

    bool empty() const {
      return counters.empty() && gauges.empty() && streaming.empty();
    }
  };
  Snapshot snapshot() const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  /// node-based map: references stay valid across inserts, and
  /// StreamingHistogram's atomics never move once created.
  std::map<std::string, StreamingHistogram> streaming_;
};

/// {"counters": {...}, "gauges": {...}, "streaming": {key: {count,
/// mean, p50, p95, p99, p999, max}}} — keys sorted, so reports diff
/// cleanly. The one renderer of registry state: report `metrics`
/// blocks and telemetry JSONL rows both come from it. Reads through
/// snapshot(), so it is safe concurrently with live updates.
runner::Json to_json(const MetricsRegistry& registry);
runner::Json to_json(const MetricsRegistry::Snapshot& snapshot);

// --- live registry plumbing (mirrors the tracer's install pattern) --
//
// Instrumentation sites guard with `if (auto* reg = live_metrics())`:
// one relaxed atomic load plus a branch when telemetry is off, so the
// figure benches pay nothing. Install/uninstall only at quiescent
// points (no simulation windows in flight); the registry must outlive
// its installation.

namespace detail {
inline std::atomic<MetricsRegistry*> g_live_metrics{nullptr};
}

inline MetricsRegistry* live_metrics() {
  return detail::g_live_metrics.load(std::memory_order_relaxed);
}

void install_live_metrics(MetricsRegistry* registry);
void uninstall_live_metrics();

}  // namespace ppo::obs
