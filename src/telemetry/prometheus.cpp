#include "telemetry/prometheus.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace ppo::telemetry {

namespace {

/// Shortest round-trippable rendering of a double, with the special
/// values Prometheus understands spelled its way.
std::string number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  // Trim to the shortest representation that parses back exactly.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == value) return shorter;
  }
  return buf;
}

std::string number(std::uint64_t value) { return std::to_string(value); }

/// One parsed registry key: family name plus its label pairs.
struct ParsedKey {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
};

ParsedKey parse_key(const std::string& key) {
  ParsedKey parsed;
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos) {
    parsed.name = prometheus_name(key);
    return parsed;
  }
  parsed.name = prometheus_name(key.substr(0, brace));
  std::size_t pos = brace + 1;
  const std::size_t end =
      key.back() == '}' ? key.size() - 1 : key.size();
  while (pos < end) {
    std::size_t comma = key.find(',', pos);
    if (comma == std::string::npos || comma > end) comma = end;
    const std::string pair = key.substr(pos, comma - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      parsed.labels.emplace_back(prometheus_name(pair.substr(0, eq)),
                                 pair.substr(eq + 1));
    }
    pos = comma + 1;
  }
  return parsed;
}

std::string render_labels(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += prometheus_label_value(v);
    out += '"';
  }
  out += '}';
  return out;
}

/// Same labels plus one extra pair (`le`), rendered.
std::string render_labels_plus(
    std::vector<std::pair<std::string, std::string>> labels,
    const std::string& key, const std::string& value) {
  labels.emplace_back(key, value);
  return render_labels(labels);
}

/// Samples grouped per family so the TYPE comment is emitted once.
template <typename Value>
using Families =
    std::map<std::string, std::vector<std::pair<ParsedKey, Value>>>;

template <typename Map, typename Value>
Families<Value> group(const Map& cells) {
  Families<Value> families;
  for (const auto& [key, value] : cells) {
    ParsedKey parsed = parse_key(key);
    const std::string name = parsed.name;
    families[name].emplace_back(std::move(parsed), value);
  }
  return families;
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  if (out.front() >= '0' && out.front() <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string prometheus_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

std::string render_prometheus(
    const obs::MetricsRegistry::Snapshot& snapshot) {
  std::string out;

  for (const auto& [family, cells] :
       group<decltype(snapshot.counters), std::uint64_t>(snapshot.counters)) {
    out += "# TYPE " + family + " counter\n";
    for (const auto& [key, value] : cells)
      out += family + render_labels(key.labels) + " " + number(value) + "\n";
  }

  for (const auto& [family, cells] :
       group<decltype(snapshot.gauges), double>(snapshot.gauges)) {
    out += "# TYPE " + family + " gauge\n";
    for (const auto& [key, value] : cells)
      out += family + render_labels(key.labels) + " " + number(value) + "\n";
  }

  for (const auto& [family, cells] :
       group<decltype(snapshot.streaming), obs::StreamingHistogram::Snapshot>(
           snapshot.streaming)) {
    out += "# TYPE " + family + " histogram\n";
    for (const auto& [key, hist] : cells) {
      // Cumulative `le` lines for the log buckets that hold mass —
      // sparse buckets are valid exposition and keep the payload
      // proportional to the distribution, not the bucket universe.
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < obs::StreamingHistogram::kBuckets; ++i) {
        if (hist.buckets[i] == 0) continue;
        cumulative += hist.buckets[i];
        out += family + "_bucket" +
               render_labels_plus(
                   key.labels, "le",
                   number(obs::StreamingHistogram::bucket_upper_bound(i))) +
               " " + number(cumulative) + "\n";
      }
      out += family + "_bucket" +
             render_labels_plus(key.labels, "le", "+Inf") + " " +
             number(hist.count) + "\n";
      out += family + "_sum" + render_labels(key.labels) + " " +
             number(hist.sum) + "\n";
      out += family + "_count" + render_labels(key.labels) + " " +
             number(hist.count) + "\n";
    }
  }

  return out;
}

std::string render_prometheus(const obs::MetricsRegistry& registry) {
  return render_prometheus(registry.snapshot());
}

}  // namespace ppo::telemetry
