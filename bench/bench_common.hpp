// Shared scaffolding for the figure-reproduction benches: CLI → scale
// knobs, workbench construction, uniform header printing, and the
// machine-readable `--json <path>` report every figure bench emits.
// Every flag can also come from the environment as PPO_<FLAG> (see
// Cli), so `PPO_BASE_NODES=8000 ./fig3_connectivity` scales a run down
// without editing commands.
//
// Parallelism: `--jobs N` sets the sweep worker count (default 0 =
// hardware concurrency) and `--shards K` (default 1) the shard threads
// of every overlay run; results are bit-identical for any N and K. Add
// `--progress` for per-cell completion/ETA lines on stderr.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "experiments/figure_json.hpp"
#include "experiments/figures.hpp"
#include "experiments/workbench.hpp"
#include "metrics/protocol_health.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runner/json.hpp"

namespace ppo::bench {

inline experiments::WorkbenchOptions workbench_options(const Cli& cli) {
  experiments::WorkbenchOptions opts;
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  opts.social.num_nodes = cli.get_size("base-nodes", 50'000, /*min=*/1);
  // Community structure must shrink with the base graph (the generator
  // requires num_nodes >= 2 x community size), so reduced-scale CI
  // runs can dial these down alongside --base-nodes.
  opts.social.sub_community_size = cli.get_size(
      "sub-community", opts.social.sub_community_size, /*min=*/1);
  opts.social.community_size =
      cli.get_size("community", opts.social.community_size, /*min=*/1);
  opts.trust_nodes = cli.get_size("nodes", 1000, /*min=*/2);
  return opts;
}

/// A measurement-window flag: a finite number, > 0 when `positive`
/// (a sampling cadence), else >= 0 (a duration). Throws CheckError
/// naming the flag otherwise.
inline double window_flag(const Cli& cli, const std::string& name,
                          double fallback, bool positive) {
  const double value = cli.get_double(name, fallback);
  PPO_CHECK_MSG(std::isfinite(value) && (positive ? value > 0.0 : value >= 0.0),
                "flag --" + name + " expects a finite number " +
                    (positive ? "> 0" : ">= 0") + ", got '" +
                    cli.get_string(name, "") + "'");
  return value;
}

/// Parses a comma-separated list of doubles, e.g. --alphas=0.25,0.5,1.
inline std::vector<double> parse_double_list(const std::string& text) {
  std::vector<double> out;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != token.size()) {
      std::cerr << "not a number in comma-separated list: '" << token << "'\n";
      std::exit(2);
    }
    out.push_back(value);
  }
  return out;
}

inline experiments::FigureScale figure_scale(const Cli& cli) {
  experiments::FigureScale scale;
  scale.window.warmup = window_flag(cli, "warmup", 300.0, false);
  scale.window.measure = window_flag(cli, "measure", 50.0, false);
  scale.window.sample_every = window_flag(cli, "sample-every", 10.0, true);
  scale.window.apl_sources = cli.get_size("apl-sources", 48, /*min=*/1);
  scale.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  scale.jobs = cli.get_size("jobs", 0);
  scale.progress = cli.get_bool("progress", false);
  scale.shards = cli.get_size("shards", 1, /*min=*/1);
  scale.replicas = cli.get_size("replicas", 1, /*min=*/1);
  scale.warm_start_dir = cli.get_string("warm-start-dir", "");
  if (cli.has("alphas")) {
    const auto alphas = parse_double_list(cli.get_string("alphas", ""));
    for (const double alpha : alphas) {
      std::ostringstream shown;
      shown << alpha;
      PPO_CHECK_MSG(std::isfinite(alpha) && alpha > 0.0 && alpha <= 1.0,
                    "flag --alphas expects values in (0, 1], got " +
                        shown.str());
    }
    if (!alphas.empty()) scale.alphas = alphas;
  }
  return scale;
}

inline void apply_logging(const Cli& cli) {
  set_log_level(parse_log_level(cli.get_string("log", "warn")));
}

/// `--trace=<cats>` (or PPO_TRACE) session for a bench run: owns the
/// tracer, installs it on construction when any category is enabled,
/// and exports Chrome-trace + JSONL artefacts on finish(). Categories:
/// all, none, or a comma list of sim/shard/shuffle/pseudonym/
/// transport/churn/log/user/adversary/inference/dht/routing.
///
/// `--trace-stream <path>` switches to streaming mode: records are
/// flushed to <path> as JSONL whenever a buffer fills (nothing is ever
/// dropped; lines arrive in flush order, not canonical order), and
/// finish() drains the remainder instead of writing the usual
/// artefacts. `--trace-buffer N` overrides the per-thread buffer
/// capacity (records).
class TraceSession {
 public:
  explicit TraceSession(const Cli& cli) {
    const std::string spec = cli.get_string("trace", "");
    std::uint32_t mask = 0;
    try {
      mask = obs::parse_trace_categories(spec);
    } catch (const std::exception& e) {
      std::cerr << e.what()
                << " (expected all/none or a comma list of sim,shard,"
                   "shuffle,pseudonym,transport,churn,log,user,adversary,"
                   "inference,dht,routing)\n";
      std::exit(2);
    }
    if (mask == obs::kTraceNone) return;
    const auto capacity = static_cast<std::size_t>(
        cli.get_int("trace-buffer", std::int64_t{1} << 22));
    const std::string stream_path = cli.get_string("trace-stream", "");
    if (!stream_path.empty())
      sink_ = std::make_unique<obs::JsonlStreamSink>(stream_path);
    tracer_ = std::make_unique<obs::Tracer>(capacity, sink_.get());
    obs::install_tracer(tracer_.get(), mask);
  }

  ~TraceSession() {
    if (tracer_ != nullptr) obs::uninstall_tracer();
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return tracer_ != nullptr; }

  /// Parallel sweep cells interleave their records into one trace;
  /// still valid (records carry sim-time and origin) but confusing to
  /// eyeball. Nudge towards --jobs 1 for per-run traces.
  void warn_if_parallel(std::size_t jobs) const {
    if (active() && jobs != 1)
      std::cerr << "note: tracing a parallel sweep (--jobs != 1) merges "
                   "all cells into one trace; use --jobs 1 for a "
                   "per-cell-ordered timeline\n";
  }

  /// Uninstalls the tracer and writes `<stem>.trace.json` (Chrome
  /// trace_event, for chrome://tracing / Perfetto) and
  /// `<stem>.trace.jsonl` — or, in streaming mode, drains the
  /// remaining records into the stream file. No-op when tracing is
  /// off.
  void finish(const std::string& stem) {
    if (tracer_ == nullptr) return;
    obs::uninstall_tracer();
    if (sink_ != nullptr) {
      tracer_->flush_to_sink();
      const std::uint64_t lines = sink_->lines_written();
      sink_->close();
      std::cout << "streamed trace: " << lines << " records ("
                << tracer_->records_recorded() << " recorded, 0 dropped)\n";
      tracer_.reset();
      sink_.reset();
      return;
    }
    const auto records = tracer_->merged();
    const std::string chrome_path = stem + ".trace.json";
    const std::string jsonl_path = stem + ".trace.jsonl";
    obs::write_file(chrome_path, obs::chrome_trace_json(records));
    obs::write_file(jsonl_path, obs::trace_jsonl(records));
    std::cout << "wrote trace: " << chrome_path << " (+ .jsonl), "
              << records.size() << " records";
    if (tracer_->records_dropped() > 0)
      std::cout << ", " << tracer_->records_dropped()
                << " dropped at buffer capacity";
    std::cout << "\n";
    tracer_.reset();
  }

 private:
  std::unique_ptr<obs::JsonlStreamSink> sink_;  // streaming mode only
  std::unique_ptr<obs::Tracer> tracer_;
};

/// Prints the bench banner: which paper artefact this reproduces and
/// the effective scale.
inline void print_header(const std::string& artefact,
                         const std::string& description,
                         const experiments::Workbench& bench) {
  std::cout << "==============================================================\n"
            << artefact << " — " << description << "\n"
            << "trust graphs: " << bench.options().trust_nodes
            << " nodes sampled from a " << bench.options().social.num_nodes
            << "-node synthetic social graph (seed "
            << bench.options().seed << ")\n"
            << "==============================================================\n\n";
}

/// Health accounting as text: one row per kHealthFields entry whose
/// registry name starts with one of `prefixes`, one column per series
/// (`names[i]` labels `health[i]`).
inline TextTable health_table(
    const std::vector<Series>& names,
    const std::vector<metrics::ProtocolHealth>& health,
    std::initializer_list<std::string_view> prefixes) {
  std::vector<std::string> header{"counter"};
  for (std::size_t i = 0; i < health.size(); ++i)
    header.push_back(names[i].name);
  TextTable table(std::move(header));
  for (const metrics::HealthField& field : metrics::kHealthFields) {
    const std::string_view name = field.name;
    if (std::none_of(prefixes.begin(), prefixes.end(),
                     [&](std::string_view p) { return name.starts_with(p); }))
      continue;
    std::vector<std::string> row{field.name};
    for (const metrics::ProtocolHealth& h : health)
      row.push_back(std::to_string(h.*field.member));
    table.add_row(std::move(row));
  }
  return table;
}

/// Process-wide peak resident set size in bytes (0 when the platform
/// has no getrusage). Monotone over the process lifetime: a reading
/// after run N covers everything up to and including run N, so
/// per-configuration deltas need one process per configuration.
/// Linux reports ru_maxrss in KiB, macOS in bytes.
inline std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

/// Wall-clock timer for the figure computation a bench reports.
class WallTimer {
 public:
  double seconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// When `--json <path>` was given, wraps `figure` (the figure payload,
/// typically experiments::to_json(fig)) in the common envelope —
/// artefact name, schema version, workbench + scale knobs, root seed,
/// resolved job count and total wall time — and writes it to the path.
/// Returns true if a file was written.
inline bool write_json_report(const Cli& cli, const std::string& artefact,
                              const experiments::Workbench& bench,
                              const experiments::FigureScale& scale,
                              runner::Json figure, double wall_seconds,
                              const obs::MetricsRegistry* metrics = nullptr) {
  if (!cli.has("json")) return false;
  const std::string path = cli.get_string("json", "");
  if (path.empty()) {
    std::cerr << "--json needs a path\n";
    std::exit(2);
  }
  runner::Json doc = runner::Json::object();
  doc["artefact"] = artefact;
  doc["schema_version"] =
      static_cast<std::int64_t>(experiments::kFigureJsonSchemaVersion);
  doc["workbench"] = experiments::to_json(bench.options());
  doc["scale"] = experiments::to_json(scale);
  doc["seed"] = scale.seed;
  doc["jobs"] = static_cast<std::uint64_t>(
      scale.jobs == 0 ? runner::default_jobs() : scale.jobs);
  doc["wall_seconds"] = wall_seconds;
  doc["peak_rss_bytes"] = static_cast<std::uint64_t>(peak_rss_bytes());
  // Warm-start accounting (DESIGN.md §13): present whenever any
  // overlay run this process was armed with --warm-start-dir, so the
  // bench_diff history ledger can tell forked sweeps from cold ones.
  const experiments::WarmStartStats warm = experiments::warm_start_stats();
  if (warm.warm_runs + warm.cold_runs > 0) {
    runner::Json w = runner::Json::object();
    w["warm_runs"] = warm.warm_runs;
    w["cold_runs"] = warm.cold_runs;
    w["warm_seconds"] = warm.warm_seconds;
    w["cold_seconds"] = warm.cold_seconds;
    doc["warm_start"] = std::move(w);
  }
  if (metrics != nullptr && !metrics->empty())
    doc["metrics"] = obs::to_json(*metrics);
  doc["figure"] = std::move(figure);

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write --json file: " << path << "\n";
    std::exit(1);
  }
  out << doc.dump(2) << "\n";
  std::cout << "wrote JSON report: " << path << "\n";
  return true;
}

}  // namespace ppo::bench
