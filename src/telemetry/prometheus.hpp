// Prometheus text-exposition rendering of a MetricsRegistry snapshot
// (exposition format 0.0.4, the `text/plain; version=0.0.4` payload a
// Prometheus server scrapes from /metrics).
//
// Mapping:
//  - counters  -> `# TYPE <name> counter` sample lines
//  - gauges    -> `# TYPE <name> gauge`
//  - streaming histograms -> native `# TYPE <name> histogram` families
//    with cumulative `le` buckets (only the log buckets that hold
//    mass, plus `+Inf`), `_sum` and `_count`
//
// Registry keys already carry dimensions in `name{k=v,...}` form;
// rendering re-parses them into proper quoted Prometheus labels and
// sanitizes names so arbitrary registry content cannot produce an
// unparsable exposition.
#pragma once

#include <string>

#include "obs/metrics_registry.hpp"

namespace ppo::telemetry {

/// Metric/label name with every character outside [a-zA-Z0-9_:]
/// replaced by '_' (leading digits get a '_' prefix).
std::string prometheus_name(const std::string& name);

/// Label value with backslash, double-quote and newline escaped.
std::string prometheus_label_value(const std::string& value);

/// Renders the full exposition payload. Families are emitted in
/// sorted-key order, so consecutive renders diff cleanly.
std::string render_prometheus(const obs::MetricsRegistry::Snapshot& snapshot);

/// Takes a race-free snapshot of `registry` first; safe to call from a
/// scrape thread while workers update the registry.
std::string render_prometheus(const obs::MetricsRegistry& registry);

/// The Content-Type a /metrics response should carry.
inline const char* prometheus_content_type() {
  return "text/plain; version=0.0.4; charset=utf-8";
}

}  // namespace ppo::telemetry
