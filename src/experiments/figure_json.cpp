#include "experiments/figure_json.hpp"

#include <cstdio>

namespace ppo::experiments {

using runner::Json;

Json to_json(const runner::SweepTelemetry& telemetry) {
  Json j = Json::object();
  j["cells"] = static_cast<std::uint64_t>(telemetry.cells);
  j["jobs"] = static_cast<std::uint64_t>(telemetry.jobs);
  j["wall_seconds"] = telemetry.wall_seconds;
  j["cell_seconds"] = Json::array_of(telemetry.cell_seconds);
  return j;
}

Json to_json(const Series& series) {
  Json j = Json::object();
  j["name"] = series.name;
  j["values"] = Json::array_of(series.values);
  return j;
}

Json to_json(const Histogram& histogram) {
  Json bins = Json::array();
  for (const auto& [value, count] : histogram.bins()) {
    Json bin = Json::object();
    bin["value"] = static_cast<std::uint64_t>(value);
    bin["count"] = static_cast<std::uint64_t>(count);
    bins.push_back(std::move(bin));
  }
  Json j = Json::object();
  j["total"] = static_cast<std::uint64_t>(histogram.total());
  j["bins"] = std::move(bins);
  return j;
}

Json to_json(const metrics::TimeSeries& series) {
  Json j = Json::object();
  j["name"] = series.name();
  j["times"] = Json::array_of(series.times());
  j["values"] = Json::array_of(series.values());
  return j;
}

Json to_json(const FigureScale& scale) {
  Json j = Json::object();
  j["warmup"] = scale.window.warmup;
  j["measure"] = scale.window.measure;
  j["sample_every"] = scale.window.sample_every;
  j["apl_sources"] = static_cast<std::uint64_t>(scale.window.apl_sources);
  j["alphas"] = Json::array_of(scale.alphas);
  j["seed"] = scale.seed;
  j["jobs"] = static_cast<std::uint64_t>(scale.jobs);
  j["shards"] = static_cast<std::uint64_t>(scale.shards);
  j["replicas"] = static_cast<std::uint64_t>(scale.replicas);
  j["warm_start"] = !scale.warm_start_dir.empty();
  return j;
}

Json to_json(const WorkbenchOptions& options) {
  Json j = Json::object();
  j["seed"] = options.seed;
  j["base_nodes"] = static_cast<std::uint64_t>(options.social.num_nodes);
  j["trust_nodes"] = static_cast<std::uint64_t>(options.trust_nodes);
  return j;
}

namespace {

Json series_block(const std::vector<Series>& series) {
  Json arr = Json::array();
  for (const Series& s : series) arr.push_back(to_json(s));
  return arr;
}

}  // namespace

Json to_json(const SweepFigure& fig) {
  Json j = Json::object();
  j["alphas"] = Json::array_of(fig.alphas);
  j["replicas"] = static_cast<std::uint64_t>(fig.replicas);
  j["connectivity"] = series_block(fig.connectivity);
  j["napl"] = series_block(fig.napl);
  j["connectivity_ci"] = series_block(fig.connectivity_ci);
  j["napl_ci"] = series_block(fig.napl_ci);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const DegreeFigure& fig) {
  Json entries = Json::array();
  for (const auto& entry : fig.entries) {
    Json e = Json::object();
    e["f"] = entry.f;
    e["trust"] = to_json(entry.trust);
    e["overlay"] = to_json(entry.overlay);
    e["random"] = to_json(entry.random);
    entries.push_back(std::move(e));
  }
  Json j = Json::object();
  j["entries"] = std::move(entries);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const MessageFigure& fig) {
  Json entries = Json::array();
  for (const auto& entry : fig.entries) {
    Json rows = Json::array();
    for (const auto& row : entry.rows) {
      Json r = Json::object();
      r["rank"] = static_cast<std::uint64_t>(row.rank);
      r["trust_degree"] = static_cast<std::uint64_t>(row.trust_degree);
      r["max_out_degree"] = static_cast<std::uint64_t>(row.max_out_degree);
      r["messages_per_period"] = row.messages_per_period;
      rows.push_back(std::move(r));
    }
    Json e = Json::object();
    e["f"] = entry.f;
    e["mean_messages"] = entry.mean_messages;
    e["rows"] = std::move(rows);
    entries.push_back(std::move(e));
  }
  Json j = Json::object();
  j["entries"] = std::move(entries);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const ConvergenceFigure& fig) {
  Json series = Json::array();
  series.push_back(to_json(fig.trust));
  series.push_back(to_json(fig.overlay_r3));
  series.push_back(to_json(fig.overlay_r9));
  Json j = Json::object();
  j["series"] = std::move(series);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const ReplacementFigure& fig) {
  Json series = Json::array();
  series.push_back(to_json(fig.r3));
  series.push_back(to_json(fig.r9));
  series.push_back(to_json(fig.r_infinite));
  Json j = Json::object();
  j["series"] = std::move(series);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const FaultFigure& fig) {
  Json j = Json::object();
  j["alphas"] = Json::array_of(fig.alphas);
  j["replicas"] = static_cast<std::uint64_t>(fig.replicas);
  j["connectivity"] = series_block(fig.connectivity);
  j["napl"] = series_block(fig.napl);
  j["completion"] = series_block(fig.completion);
  j["connectivity_ci"] = series_block(fig.connectivity_ci);
  j["napl_ci"] = series_block(fig.napl_ci);
  j["completion_ci"] = series_block(fig.completion_ci);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

Json to_json(const AdversaryFigure& fig) {
  Json j = Json::object();
  j["fractions"] = Json::array_of(fig.fractions);
  j["replicas"] = static_cast<std::uint64_t>(fig.replicas);
  j["zero_adversary_identical"] = fig.zero_adversary_identical;
  j["connectivity"] = series_block(fig.connectivity);
  j["completion"] = series_block(fig.completion);
  j["connectivity_ci"] = series_block(fig.connectivity_ci);
  j["completion_ci"] = series_block(fig.completion_ci);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

void add_health_metrics(obs::MetricsRegistry& registry,
                        const metrics::ProtocolHealth& health,
                        const obs::MetricDims& dims,
                        const metrics::ProtocolHealth& since) {
  for (const metrics::HealthField& field : metrics::kHealthFields) {
    if (field.kind == metrics::HealthKind::kTotal)
      registry.add_counter(field.name,
                           health.*field.member - since.*field.member, dims);
    else
      registry.set_gauge(field.name,
                         static_cast<double>(health.*field.member), dims);
  }
  registry.set_gauge("protocol_completion_rate", health.completion_rate(),
                     dims);
  registry.set_gauge("protocol_honest_completion_rate",
                     health.honest_completion_rate(), dims);
  registry.set_gauge("transport_delivery_rate", health.delivery_rate(), dims);
}

namespace {

/// "%g" rendering for dimension values: 0.5 -> "0.5", 1.0 -> "1".
std::string compact(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", x);
  return buf;
}

void add_series(obs::MetricsRegistry& registry,
                const metrics::ProtocolHealth& health,
                const std::string& series) {
  add_health_metrics(registry, health, {{"series", series}});
}

obs::MetricsRegistry health_registry(
    const std::vector<metrics::ProtocolHealth>& health,
    const std::vector<Series>& names) {
  obs::MetricsRegistry registry;
  for (std::size_t i = 0; i < health.size(); ++i)
    add_series(registry, health[i], names[i].name);
  return registry;
}

template <typename PerF>
obs::MetricsRegistry per_f_registry(const std::vector<PerF>& entries) {
  obs::MetricsRegistry registry;
  for (const PerF& entry : entries)
    add_series(registry, entry.health, "overlay-f" + compact(entry.f));
  return registry;
}

}  // namespace

obs::MetricsRegistry collect_metrics(const SweepFigure& fig) {
  return health_registry(fig.health, fig.connectivity);
}

obs::MetricsRegistry collect_metrics(const DegreeFigure& fig) {
  return per_f_registry(fig.entries);
}

obs::MetricsRegistry collect_metrics(const MessageFigure& fig) {
  return per_f_registry(fig.entries);
}

obs::MetricsRegistry collect_metrics(const ConvergenceFigure& fig) {
  obs::MetricsRegistry registry;
  add_series(registry, fig.health_r3, fig.overlay_r3.name());
  add_series(registry, fig.health_r9, fig.overlay_r9.name());
  return registry;
}

obs::MetricsRegistry collect_metrics(const ReplacementFigure& fig) {
  obs::MetricsRegistry registry;
  add_series(registry, fig.health_r3, fig.r3.name());
  add_series(registry, fig.health_r9, fig.r9.name());
  add_series(registry, fig.health_r_infinite, fig.r_infinite.name());
  return registry;
}

obs::MetricsRegistry collect_metrics(const FaultFigure& fig) {
  return health_registry(fig.health, fig.connectivity);
}

obs::MetricsRegistry collect_metrics(const AdversaryFigure& fig) {
  return health_registry(fig.health, fig.connectivity);
}

Json to_json(const LinkPrivacyFigure& fig) {
  Json j = Json::object();
  j["lifetimes"] = Json::array_of(fig.lifetimes);
  j["coverages"] = Json::array_of(fig.coverages);
  Json attacks = Json::array();
  for (const std::string& name : fig.attacks) attacks.push_back(name);
  j["attacks"] = std::move(attacks);
  j["replicas"] = static_cast<std::uint64_t>(fig.replicas);
  j["true_edges"] = fig.true_edges;
  j["zero_observer_identical"] = fig.zero_observer_identical;
  j["kinvariant"] = fig.kinvariant;
  Json fingerprints = Json::array();
  for (const ShardFingerprint& fp : fig.shard_fingerprints) {
    Json entry = Json::object();
    entry["shards"] = static_cast<std::uint64_t>(fp.shards);
    entry["log_fingerprint"] = fp.log;
    Json attack_fps = Json::array();
    for (const std::uint64_t value : fp.attacks) attack_fps.push_back(value);
    entry["attack_fingerprints"] = std::move(attack_fps);
    fingerprints.push_back(std::move(entry));
  }
  j["shard_fingerprints"] = std::move(fingerprints);
  Json cells = Json::array();
  for (const LinkPrivacyCell& cell : fig.cells) {
    Json entry = Json::object();
    entry["lifetime"] = cell.lifetime;
    entry["coverage"] = cell.coverage;
    entry["attack"] = cell.attack;
    entry["defended"] = cell.defended;
    entry["precision"] = cell.precision;
    entry["recall"] = cell.recall;
    entry["auc"] = cell.auc;
    entry["precision_ci"] = cell.precision_ci;
    entry["recall_ci"] = cell.recall_ci;
    entry["auc_ci"] = cell.auc_ci;
    entry["observations"] = cell.observations;
    entry["entities"] = cell.entities;
    cells.push_back(std::move(entry));
  }
  j["cells"] = std::move(cells);
  j["telemetry"] = to_json(fig.telemetry);
  return j;
}

}  // namespace ppo::experiments
