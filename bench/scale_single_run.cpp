// Sharded-core scaling bench: ONE large overlay simulation (default
// 100k nodes) run once per shard count, reporting wall time, event
// throughput, a trajectory fingerprint, peak RSS with bytes-per-node
// / bytes-per-edge breakdowns, and the run's Figure 3 connectivity
// point (fraction of online nodes outside the overlay's largest
// component at the horizon). The fingerprint must agree across every
// K in --shard-list (each an integer >= 1) — that is the sharded
// core's determinism contract — so this bench doubles as a
// large-scale bit-identity check.
//
// Speedup is hardware-dependent: on a single-core runner every K
// costs about the same wall time and the numbers say so honestly.
//
// Overlay parameters are reduced relative to Table I (cache 50,
// shuffle length 10, target links 20): at 100k nodes the paper-size
// state would dominate memory, and the scaling question is about the
// event core, not cache churn.
//
// --json <path> writes the machine-readable report (schema_version
// shared with the figure benches).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "churn/churn_model.hpp"
#include "graph/generators.hpp"
#include "metrics/streaming_connectivity.hpp"
#include "overlay/sharded_service.hpp"
#include "sim/sharded_simulator.hpp"
#include "telemetry/service_mode.hpp"

namespace {

using namespace ppo;

// The trajectory fingerprint (FNV-1a over the canonical edge list +
// health counters) moved to telemetry::trajectory_fingerprint so this
// bench, the service mode and the determinism tests all hash the same
// way.

struct RunReport {
  std::size_t shards = 1;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::size_t online = 0;
  /// Figure 3 data point for this run: fraction of online nodes
  /// outside the overlay's largest connected component at the
  /// horizon (streaming union-find over the same edge list the
  /// fingerprint hashes).
  double fraction_disconnected = 0.0;
  std::size_t overlay_edges = 0;
  /// Memory telemetry. peak_rss_bytes is process-wide and monotone
  /// across runs in one invocation — only the FIRST run's reading is
  /// a clean per-configuration ceiling; later runs report the max so
  /// far. node_state_bytes is exact per service (arena reservation).
  std::size_t peak_rss_bytes = 0;
  std::size_t node_state_bytes = 0;
  metrics::ProtocolHealth health;
  std::vector<sim::ShardedSimulator::ShardStats> shard_stats;

  double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
  /// Per thread: K shards run on K threads.
  double events_per_second_per_core() const {
    return events_per_second() / static_cast<double>(shards);
  }
};

/// Busy fraction of a shard's window wall time; 0 when unprofiled.
double busy_ratio(const sim::ShardedSimulator::ShardStats& st) {
  const double denom = st.busy_seconds + st.stall_seconds;
  return denom > 0.0 ? st.busy_seconds / denom : 0.0;
}

double stall_ratio(const sim::ShardedSimulator::ShardStats& st) {
  const double denom = st.busy_seconds + st.stall_seconds;
  return denom > 0.0 ? st.stall_seconds / denom : 0.0;
}

/// Per-run registry: health rollup plus the per-shard load profile
/// (dimension shard=K), the `metrics` block of each JSON run entry and
/// the only place the run's counters are written.
obs::MetricsRegistry run_metrics(const RunReport& report, bool profiled) {
  obs::MetricsRegistry registry;
  experiments::add_health_metrics(registry, report.health);
  for (std::size_t s = 0; s < report.shard_stats.size(); ++s) {
    const auto& st = report.shard_stats[s];
    const obs::MetricDims dims{{"shard", std::to_string(s)}};
    registry.add_counter("shard_events", st.events, dims);
    registry.add_counter("shard_windows", st.windows, dims);
    registry.add_counter("shard_mailbox_out", st.mailbox_out, dims);
    registry.set_gauge("shard_max_queue", static_cast<double>(st.max_queue),
                       dims);
    if (profiled) {
      registry.set_gauge("shard_busy_seconds", st.busy_seconds, dims);
      registry.set_gauge("shard_stall_seconds", st.stall_seconds, dims);
      registry.set_gauge("shard_busy_ratio", busy_ratio(st), dims);
      registry.set_gauge("shard_stall_ratio", stall_ratio(st), dims);
    }
  }
  return registry;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::apply_logging(cli);

  const std::size_t nodes = cli.get_size("nodes", 100'000, /*min=*/2);
  const double alpha = cli.get_double("alpha", 0.5);
  const double horizon = cli.get_double("horizon", 20.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const auto shard_list =
      cli.get_size_list("shard-list", "1,2,4,8", /*min=*/1);
  if (shard_list.empty()) {
    std::cerr << "--shard-list needs at least one entry\n";
    return 2;
  }
  const bool profile = cli.get_bool("profile", false);
  const std::string trace_stem =
      cli.get_string("trace-out", "scale_single_run");

  overlay::OverlayServiceOptions options;
  options.params.cache_size = cli.get_size("cache", 50, /*min=*/1);
  options.params.shuffle_length =
      cli.get_size("shuffle-length", 10, /*min=*/1);
  options.params.target_links =
      cli.get_size("target-links", 20, /*min=*/0);
  options.params.pseudonym_lifetime = 90.0;

  std::cout << "==============================================================\n"
            << "scale_single_run — sharded-core scaling on one large run\n"
            << nodes << " nodes, alpha " << alpha << ", horizon " << horizon
            << " periods (seed " << seed << ")\n"
            << "==============================================================\n\n";

  // A scale-free, clustered trust graph stands in for the sampled
  // social graph — at this size the invitation pipeline would be the
  // bottleneck, not the simulation under test.
  Rng graph_rng(seed ^ 0x6EA4);
  const graph::Graph trust = graph::holme_kim(nodes, 5, 0.3, graph_rng);

  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(alpha, 30.0);

  std::vector<RunReport> reports;
  for (const std::size_t shards : shard_list) {
    RunReport report;
    report.shards = shards;
    // One tracer per run so every K gets its own artefact pair; the
    // emitted records never touch simulation state, so the reported
    // fingerprints are bit-identical with --trace on or off.
    bench::TraceSession trace(cli);
    const bench::WallTimer timer;
    {
      sim::ShardedSimulator::Options so =
          overlay::simulator_options(options, nodes, shards);
      so.profile = profile;
      sim::ShardedSimulator sim(so);
      overlay::ShardedOverlayService service(sim, trust, model, options, seed);
      service.start();
      sim.run_until(horizon);
      report.events = sim.events_executed();
      report.shard_stats = sim.shard_stats();
      // Post-run measurement: canonical edge list (no snapshot Graph),
      // fingerprint, Figure 3 connectivity point, memory.
      report.health = service.protocol_health();
      report.online = service.online_count();
      const auto edges = service.overlay_edges();
      report.overlay_edges = edges.size();
      report.fingerprint =
          telemetry::trajectory_fingerprint(edges, report.health);
      metrics::StreamingConnectivity connectivity;
      report.fraction_disconnected = connectivity.fraction_disconnected(
          nodes, edges, service.online_mask());
      report.node_state_bytes = service.node_state_bytes();
      report.peak_rss_bytes = bench::peak_rss_bytes();
    }
    report.wall_seconds = timer.seconds();
    trace.finish(trace_stem + ".k" + std::to_string(shards));
    reports.push_back(report);

    std::cout << "K=" << report.shards << ": "
              << report.wall_seconds << " s, " << report.events
              << " events (" << report.events_per_second() << " events/s, "
              << report.events_per_second_per_core()
              << " events/s/core), fingerprint " << std::hex
              << report.fingerprint << std::dec << "\n"
              << "  overlay: " << report.overlay_edges << " edges, "
              << report.online << " online, fraction_disconnected "
              << report.fraction_disconnected << "\n"
              << "  memory: peak RSS "
              << report.peak_rss_bytes / (1024.0 * 1024.0) << " MiB ("
              << static_cast<double>(report.peak_rss_bytes) /
                     static_cast<double>(nodes)
              << " bytes/node, "
              << (report.overlay_edges == 0
                      ? 0.0
                      : static_cast<double>(report.peak_rss_bytes) /
                            static_cast<double>(report.overlay_edges))
              << " bytes/edge), node-state arena "
              << report.node_state_bytes / (1024.0 * 1024.0) << " MiB ("
              << static_cast<double>(report.node_state_bytes) /
                     static_cast<double>(nodes)
              << " bytes/node)\n";
    if (profile && !report.shard_stats.empty()) {
      std::cout << "  shard  events      mailbox_out  max_queue  busy_s   "
                   "stall_s  busy%   stall%\n";
      for (std::size_t s = 0; s < report.shard_stats.size(); ++s) {
        const auto& st = report.shard_stats[s];
        std::printf(
            "  %-6zu %-11llu %-12llu %-10zu %-8.3f %-8.3f %-7.3f %-7.3f\n",
            s, static_cast<unsigned long long>(st.events),
            static_cast<unsigned long long>(st.mailbox_out), st.max_queue,
            st.busy_seconds, st.stall_seconds, busy_ratio(st),
            stall_ratio(st));
      }
    }
  }

  // Bit-identity across every K.
  bool identical = true;
  for (const RunReport& r : reports)
    identical = identical && r.fingerprint == reports.front().fingerprint;
  std::cout << "\nsharded trajectories "
            << (identical ? "IDENTICAL across all K\n"
                          : "DIVERGE — determinism bug!\n");

  if (cli.has("json")) {
    const std::string path = cli.get_string("json", "");
    if (path.empty()) {
      std::cerr << "--json needs a path\n";
      return 2;
    }
    runner::Json doc = runner::Json::object();
    doc["artefact"] = std::string("scale_single_run");
    doc["schema_version"] =
        static_cast<std::int64_t>(experiments::kFigureJsonSchemaVersion);
    doc["nodes"] = static_cast<std::uint64_t>(nodes);
    doc["alpha"] = alpha;
    doc["horizon"] = horizon;
    doc["seed"] = seed;
    doc["identical_across_shards"] = identical;
    doc["peak_rss_bytes"] =
        static_cast<std::uint64_t>(bench::peak_rss_bytes());
    doc["trust_graph_bytes"] = static_cast<std::uint64_t>(
        trust.csr() != nullptr ? trust.csr()->memory_bytes() : 0);
    doc["trust_edges"] = static_cast<std::uint64_t>(trust.num_edges());
    // Figure 3 data point from the first run (peak RSS is monotone
    // across runs, so the first run's ceiling is the honest one).
    if (!reports.empty()) {
      const RunReport& first = reports.front();
      runner::Json point = runner::Json::object();
      point["nodes"] = static_cast<std::uint64_t>(nodes);
      point["alpha"] = alpha;
      point["fraction_disconnected"] = first.fraction_disconnected;
      point["overlay_edges"] = static_cast<std::uint64_t>(first.overlay_edges);
      point["online"] = static_cast<std::uint64_t>(first.online);
      point["peak_rss_bytes"] =
          static_cast<std::uint64_t>(first.peak_rss_bytes);
      point["bytes_per_node"] = static_cast<double>(first.peak_rss_bytes) /
                                static_cast<double>(nodes);
      point["bytes_per_edge"] =
          first.overlay_edges == 0
              ? 0.0
              : static_cast<double>(first.peak_rss_bytes) /
                    static_cast<double>(first.overlay_edges);
      point["node_state_bytes"] =
          static_cast<std::uint64_t>(first.node_state_bytes);
      point["node_state_bytes_per_node"] =
          static_cast<double>(first.node_state_bytes) /
          static_cast<double>(nodes);
      doc["fig3_point"] = std::move(point);
    }
    runner::Json runs = runner::Json::array();
    for (const RunReport& r : reports) {
      runner::Json entry = runner::Json::object();
      entry["shards"] = static_cast<std::uint64_t>(r.shards);
      entry["wall_seconds"] = r.wall_seconds;
      entry["events"] = r.events;
      entry["events_per_second"] = r.events_per_second();
      entry["events_per_second_per_core"] = r.events_per_second_per_core();
      entry["fingerprint"] = r.fingerprint;
      entry["online"] = static_cast<std::uint64_t>(r.online);
      entry["fraction_disconnected"] = r.fraction_disconnected;
      entry["overlay_edges"] = static_cast<std::uint64_t>(r.overlay_edges);
      entry["peak_rss_bytes"] = static_cast<std::uint64_t>(r.peak_rss_bytes);
      entry["node_state_bytes"] =
          static_cast<std::uint64_t>(r.node_state_bytes);
      entry["metrics"] = obs::to_json(run_metrics(r, profile));
      runs.push_back(std::move(entry));
    }
    doc["runs"] = std::move(runs);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write --json file: " << path << "\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
    std::cout << "wrote JSON report: " << path << "\n";
  }
  return identical ? 0 : 1;
}
