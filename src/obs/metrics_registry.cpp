#include "obs/metrics_registry.hpp"

#include <mutex>

namespace ppo::obs {

std::string metric_key(const std::string& name, const MetricDims& dims) {
  if (dims.empty()) return name;
  std::string key = name;
  key += '{';
  bool first = true;
  for (const auto& [k, v] : dims) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += '=';
    key += v;
  }
  key += '}';
  return key;
}

MetricsRegistry::MetricsRegistry(const MetricsRegistry& other) {
  *this = other;
}

MetricsRegistry& MetricsRegistry::operator=(const MetricsRegistry& other) {
  if (this == &other) return *this;
  std::shared_lock other_lock(other.mutex_);
  std::unique_lock lock(mutex_);
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  streaming_ = other.streaming_;
  return *this;
}

void MetricsRegistry::add_counter(const std::string& name, std::uint64_t delta,
                                  const MetricDims& dims) {
  std::unique_lock lock(mutex_);
  counters_[metric_key(name, dims)] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value,
                                const MetricDims& dims) {
  std::unique_lock lock(mutex_);
  gauges_[metric_key(name, dims)] = value;
}

StreamingHistogram& MetricsRegistry::streaming(const std::string& name,
                                               const MetricDims& dims) {
  const std::string key = metric_key(name, dims);
  {
    std::shared_lock lock(mutex_);
    const auto it = streaming_.find(key);
    if (it != streaming_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  return streaming_[key];
}

void MetricsRegistry::observe(const std::string& name, double value,
                              const MetricDims& dims) {
  streaming(name, dims).observe(value);
}

std::uint64_t MetricsRegistry::counter(const std::string& key) const {
  std::shared_lock lock(mutex_);
  auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second;
}

bool MetricsRegistry::empty() const {
  std::shared_lock lock(mutex_);
  return counters_.empty() && gauges_.empty() && streaming_.empty();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::shared_lock lock(mutex_);
  snap.counters = counters_;
  snap.gauges = gauges_;
  for (const auto& [key, hist] : streaming_)
    snap.streaming.emplace(key, hist.snapshot());
  return snap;
}

void install_live_metrics(MetricsRegistry* registry) {
  detail::g_live_metrics.store(registry, std::memory_order_release);
}

void uninstall_live_metrics() {
  detail::g_live_metrics.store(nullptr, std::memory_order_release);
}

runner::Json to_json(const MetricsRegistry& registry) {
  return to_json(registry.snapshot());
}

runner::Json to_json(const MetricsRegistry::Snapshot& snapshot) {
  auto doc = runner::Json::object();
  auto counters = runner::Json::object();
  for (const auto& [key, value] : snapshot.counters) counters[key] = value;
  doc["counters"] = std::move(counters);
  auto gauges = runner::Json::object();
  for (const auto& [key, value] : snapshot.gauges) gauges[key] = value;
  doc["gauges"] = std::move(gauges);
  auto streaming = runner::Json::object();
  for (const auto& [key, s] : snapshot.streaming) {
    auto cell = runner::Json::object();
    cell["count"] = s.count;
    cell["mean"] = s.mean();
    cell["p50"] = s.p50();
    cell["p95"] = s.p95();
    cell["p99"] = s.p99();
    cell["p999"] = s.p999();
    cell["max"] = s.max;
    streaming[key] = std::move(cell);
  }
  doc["streaming"] = std::move(streaming);
  return doc;
}

}  // namespace ppo::obs
