// JSON projections of the figure results, scale knobs and sweep
// telemetry — the payload of every bench's `--json <path>` flag and of
// the committed BENCH_*.json perf-baseline files.
//
// Schema (stable, versioned by kFigureJsonSchemaVersion in the bench
// envelope): series figures become {"alphas": [...], "series":
// [{"name": ..., "values": [...]}, ...]}; histograms become sorted
// {"value": n, "count": n} bins; telemetry always carries jobs, cells,
// wall_seconds and per-cell seconds.
#pragma once

#include "experiments/adversary_study.hpp"
#include "experiments/figures.hpp"
#include "experiments/link_privacy.hpp"
#include "obs/metrics_registry.hpp"
#include "runner/json.hpp"

namespace ppo::experiments {

/// v2: scale carries `shards`, and every figure payload reports
/// ProtocolHealth rollups (`health` arrays keyed by series name).
/// v3: scale carries `replicas`; the sweep figures report 95%
/// confidence half-widths (`connectivity_ci`/`napl_ci`/
/// `completion_ci`) and their replica count; the bench envelope can
/// carry a `metrics` registry block (counters/gauges/histograms).
/// v4: the `metrics` block gains a `streaming` section (log-bucketed
/// quantile summaries: count/mean/p50/p95/p99/p999/max) and the
/// `histograms` section reports the same summary shape; scale run
/// entries carry `events_per_second`/`events_per_second_per_core`
/// and profiled shard rows carry `busy_ratio`/`stall_ratio`; new
/// `service_mode` artefact (live-telemetry service runs).
/// v5: each number is written once, in the `metrics` block. Figure
/// payloads lose their `health` arrays: every figure's envelope
/// (fig5/6/8/9 included) carries the health counters as
/// `<name>{series=<series>}` cells, named by metrics::kHealthFields,
/// with `attack_slots_eclipsed` a gauge and
/// `protocol_honest_request_retries` new. scale_single_run runs lose
/// `health` and `shard_profile` (their `metrics` block holds the
/// `shard_*{shard=k}` cells), service_mode and dissemination_broadcast
/// lose `health`, link_privacy loses its `inference_*` gauges (they
/// repeated `figure.cells`), and `metrics` loses its `histograms`
/// section.
inline constexpr int kFigureJsonSchemaVersion = 5;

runner::Json to_json(const runner::SweepTelemetry& telemetry);
runner::Json to_json(const Series& series);
runner::Json to_json(const Histogram& histogram);
runner::Json to_json(const metrics::TimeSeries& series);
runner::Json to_json(const FigureScale& scale);
runner::Json to_json(const WorkbenchOptions& options);

runner::Json to_json(const SweepFigure& fig);
runner::Json to_json(const DegreeFigure& fig);
runner::Json to_json(const MessageFigure& fig);
runner::Json to_json(const ConvergenceFigure& fig);
runner::Json to_json(const ReplacementFigure& fig);
runner::Json to_json(const FaultFigure& fig);
runner::Json to_json(const AdversaryFigure& fig);
runner::Json to_json(const LinkPrivacyFigure& fig);

/// The one projection of a ProtocolHealth record into the registry:
/// every kHealthFields total becomes a counter advanced by its growth
/// since `since` (all of it by default), the level and the three rates
/// become gauges — all under `dims` (e.g. {{"series",
/// "overlay-f0.5"}}). Service mode passes the previous slice's record
/// as `since`, so one call serves reports and live refreshes alike.
void add_health_metrics(obs::MetricsRegistry& registry,
                        const metrics::ProtocolHealth& health,
                        const obs::MetricDims& dims = {},
                        const metrics::ProtocolHealth& since = {});

/// A figure's health rollups as registry cells, one `series`
/// dimension per rollup — the `metrics` block of the bench envelope.
obs::MetricsRegistry collect_metrics(const SweepFigure& fig);
obs::MetricsRegistry collect_metrics(const DegreeFigure& fig);
obs::MetricsRegistry collect_metrics(const MessageFigure& fig);
obs::MetricsRegistry collect_metrics(const ConvergenceFigure& fig);
obs::MetricsRegistry collect_metrics(const ReplacementFigure& fig);
obs::MetricsRegistry collect_metrics(const FaultFigure& fig);
obs::MetricsRegistry collect_metrics(const AdversaryFigure& fig);

}  // namespace ppo::experiments
