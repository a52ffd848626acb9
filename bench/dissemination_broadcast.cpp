// Application-level dissemination (the paper's motivating workload,
// §I): broadcast coverage, latency and message cost over the bare
// trust graph vs the maintained overlay, under churn, for controlled
// flooding and epidemic (fanout-limited) push.
//
// Expected outcome: on the trust graph at alpha = 0.5 a large part of
// the online population is unreachable; the overlay delivers to
// (nearly) everyone, with lower latency (shorter paths), at the cost
// of more links.
//
// --trials N broadcasts per (graph, protocol) combination (default 20).
// --jobs N runs the per-alpha cells in parallel (bit-identical output
// for any N); --json <path> writes the machine-readable report.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "dissemination/broadcast.hpp"
#include "experiments/scenario.hpp"
#include "overlay/sharded_service.hpp"

namespace {

using namespace ppo;

struct Aggregate {
  RunningStats coverage, latency, messages;
};

/// Broadcasts from `trials` random online sources and aggregates.
Aggregate run_broadcasts(const graph::Graph& g, const graph::NodeMask& online,
                         const dissem::BroadcastOptions& options,
                         std::size_t trials, Rng& rng) {
  Aggregate agg;
  std::vector<graph::NodeId> candidates;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    if (online.contains(v)) candidates.push_back(v);
  for (std::size_t t = 0; t < trials && !candidates.empty(); ++t) {
    const graph::NodeId source =
        candidates[rng.uniform_u64(candidates.size())];
    const auto result = dissem::broadcast(g, online, source, options, rng);
    agg.coverage.add(result.coverage);
    agg.latency.add(result.mean_latency);
    agg.messages.add(static_cast<double>(result.messages_sent));
  }
  return agg;
}

struct ComboResult {
  bool use_overlay = false;
  std::size_t fanout = 0;  // 0 = flood
  Aggregate agg;
};

/// Everything one alpha cell produces: the four (graph x protocol)
/// aggregates plus the overlay run's health rollup.
struct CellResult {
  std::vector<ComboResult> combos;
  metrics::ProtocolHealth health;
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Dissemination",
                      "broadcast over trust graph vs maintained overlay",
                      bench);

  const auto scale = bench::figure_scale(cli);
  const graph::Graph& trust = bench.trust_graph(0.5);
  const std::size_t trials =
      static_cast<std::size_t>(cli.get_int("trials", 20));
  // This workload sweeps the moderate-availability regime, not the
  // full figure-bench alpha axis; --alphas still overrides.
  std::vector<double> alphas{0.5, 0.75, 1.0};
  if (cli.has("alphas")) {
    const auto parsed = bench::parse_double_list(cli.get_string("alphas", ""));
    if (!parsed.empty()) alphas = parsed;
  }

  bench::TraceSession trace(cli);
  trace.warn_if_parallel(scale.jobs == 0 ? runner::default_jobs() : scale.jobs);

  runner::SweepOptions sweep;
  sweep.jobs = scale.jobs;
  sweep.root_seed = scale.seed;
  sweep.progress = scale.progress;
  sweep.label = "dissemination_broadcast";

  const bench::WallTimer timer;
  auto grid = runner::run_grid(
      alphas, sweep, [&](double alpha, const runner::CellInfo&) {
        // One overlay run provides the graph + churn mask for both
        // protocols; the trust graph is measured under the same mask.
        experiments::OverlayScenario scenario;
        scenario.churn.alpha = alpha;
        scenario.window = scale.window;
        scenario.seed = scale.seed ^ static_cast<std::uint64_t>(alpha * 512);

        const auto model = scenario.churn.make();
        const overlay::OverlayServiceOptions options{.params = scenario.params};
        sim::ShardedSimulator simulator(
            overlay::simulator_options(options, trust.num_nodes()));
        overlay::ShardedOverlayService service(simulator, trust, *model,
                                               options, scenario.seed);
        service.start();
        simulator.run_until(scenario.window.warmup);
        graph::Graph overlay_graph = service.overlay_snapshot();
        const graph::NodeMask& online = service.online_mask();

        CellResult out;
        out.health = service.protocol_health();
        Rng rng(scenario.seed ^ 0xD15);
        for (const bool use_overlay : {false, true}) {
          const graph::Graph& g = use_overlay ? overlay_graph : trust;
          for (const std::size_t fanout : {0u, 4u}) {
            dissem::BroadcastOptions options;
            options.fanout = fanout;
            out.combos.push_back(
                {use_overlay, fanout,
                 run_broadcasts(g, online, options, trials, rng)});
          }
        }
        return out;
      });
  const double wall = timer.seconds();
  trace.finish("dissemination_broadcast");

  TextTable table({"alpha", "graph", "protocol", "coverage", "mean-latency",
                   "messages"});
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    for (const ComboResult& combo : grid.cells[i].combos) {
      table.add_row(
          {TextTable::num(alphas[i]), combo.use_overlay ? "overlay" : "trust",
           combo.fanout == 0 ? "flood" : "epidemic(4)",
           TextTable::num(combo.agg.coverage.mean(), 3),
           TextTable::num(combo.agg.latency.mean(), 3),
           TextTable::num(combo.agg.messages.mean(), 0)});
    }
  }
  table.print(std::cout);

  if (cli.has("json")) {
    const std::string path = cli.get_string("json", "");
    if (path.empty()) {
      std::cerr << "--json needs a path\n";
      return 2;
    }
    obs::MetricsRegistry metrics;
    runner::Json rows = runner::Json::array();
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      for (const ComboResult& combo : grid.cells[i].combos) {
        runner::Json row = runner::Json::object();
        row["alpha"] = alphas[i];
        row["graph"] =
            std::string(combo.use_overlay ? "overlay" : "trust");
        row["protocol"] =
            std::string(combo.fanout == 0 ? "flood" : "epidemic(4)");
        row["trials"] = static_cast<std::uint64_t>(combo.agg.coverage.count());
        row["coverage"] = combo.agg.coverage.mean();
        row["coverage_ci"] = ci95_half_width(combo.agg.coverage);
        row["mean_latency"] = combo.agg.latency.mean();
        row["latency_ci"] = ci95_half_width(combo.agg.latency);
        row["messages"] = combo.agg.messages.mean();
        row["messages_ci"] = ci95_half_width(combo.agg.messages);
        rows.push_back(std::move(row));
      }
      experiments::add_health_metrics(
          metrics, grid.cells[i].health,
          {{"alpha", TextTable::num(alphas[i])}});
    }

    runner::Json doc = runner::Json::object();
    doc["artefact"] = std::string("dissemination_broadcast");
    doc["schema_version"] =
        static_cast<std::int64_t>(experiments::kFigureJsonSchemaVersion);
    doc["workbench"] = experiments::to_json(bench.options());
    doc["alphas"] = runner::Json::array_of(alphas);
    doc["trials"] = static_cast<std::uint64_t>(trials);
    doc["seed"] = scale.seed;
    doc["jobs"] = static_cast<std::uint64_t>(
        scale.jobs == 0 ? runner::default_jobs() : scale.jobs);
    doc["wall_seconds"] = wall;
    doc["metrics"] = obs::to_json(metrics);
    doc["rows"] = std::move(rows);
    doc["telemetry"] = experiments::to_json(grid.telemetry);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write --json file: " << path << "\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
    std::cout << "wrote JSON report: " << path << "\n";
  }
  return 0;
}
