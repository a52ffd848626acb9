// Long-running service mode: a sustained overlay workload with the
// live telemetry plane attached. Unlike the figure benches (fixed
// horizon, report at the end), this runs until --horizon sim periods
// OR --wall-limit wall seconds — whichever comes first — while
// exporting live state:
//
//   /metrics   Prometheus text exposition (curl-able while running)
//   /samples   the most recent wall-clock samples, as JSONL
//   /healthz   liveness probe
//   --telemetry-out <path>   every sample appended as one JSONL line
//
// Workload arms (all optional, composable): --loss (link faults, with
// shuffle timeouts and one retry), --adversary + --attack
// [+ --defended] (Byzantine roles), --observer (passive link-privacy
// observer).
//
// Determinism: for a fixed --horizon, the trajectory fingerprint is
// bit-identical with telemetry on or off (the plane is read-only and
// wall-clock-side); --wall-limit runs end wherever the wall says, so
// their fingerprints are only comparable to themselves.
//
// Examples:
//   service_mode --horizon 50 --shards 4 --telemetry-port 9464
//   service_mode --wall-limit 30 --loss 0.05 --adversary 0.1
//                --attack mixed --defended --telemetry-out ts.jsonl
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/service_mode.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);

  telemetry::ServiceModeOptions opt;
  opt.nodes = cli.get_size("nodes", 5000, /*min=*/2);
  opt.alpha = cli.get_double("alpha", 0.5);
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  opt.shards = cli.get_size("shards", 4, /*min=*/1);
  opt.horizon = cli.get_double("horizon", 0.0);
  opt.wall_limit_seconds = cli.get_double("wall-limit", 0.0);
  opt.slice = cli.get_double("slice", 1.0);
  opt.loss = cli.get_double("loss", 0.0);
  opt.adversary_fraction = cli.get_double("adversary", 0.0);
  opt.adversary_attack = cli.get_string("attack", "mixed");
  opt.defended = cli.get_bool("defended", false);
  opt.observer_coverage = cli.get_double("observer", 0.0);
  opt.cache_size = cli.get_size("cache", 50, /*min=*/1);
  opt.shuffle_length = cli.get_size("shuffle-length", 10, /*min=*/1);
  opt.target_links = cli.get_size("target-links", 20, /*min=*/0);
  opt.profile = cli.get_bool("profile", true);
  opt.port = static_cast<int>(cli.get_int("telemetry-port", -1));
  opt.telemetry_out = cli.get_string("telemetry-out", "");
  opt.sample_interval_seconds = cli.get_double("sample-interval", 1.0);
  opt.ring_capacity = cli.get_size("ring-capacity", 600, /*min=*/1);
  opt.checkpoint_every = cli.get_double("checkpoint-every", 0.0);
  opt.checkpoint_dir = cli.get_string("checkpoint-dir", "");
  opt.resume = cli.get_bool("resume", false);
  // The service binary always drains gracefully on SIGINT/SIGTERM:
  // finish the slice, snapshot (when --checkpoint-dir is set), flush
  // the telemetry ring tail, exit 0.
  opt.handle_signals = true;

  if (opt.horizon <= 0.0 && opt.wall_limit_seconds <= 0.0) {
    std::cerr << "service_mode needs --horizon <periods> and/or "
                 "--wall-limit <seconds>\n";
    return 2;
  }
  if (opt.checkpoint_every > 0.0 && opt.checkpoint_dir.empty()) {
    std::cerr << "--checkpoint-every needs --checkpoint-dir <dir>\n";
    return 2;
  }
  if (opt.resume && opt.checkpoint_dir.empty()) {
    std::cerr << "--resume needs --checkpoint-dir <dir>\n";
    return 2;
  }

  std::cout << "==============================================================\n"
            << "service_mode — sustained overlay workload with live telemetry\n"
            << opt.nodes << " nodes, alpha " << opt.alpha << ", K="
            << opt.shards << ", seed "
            << opt.seed << "\n";
  if (opt.horizon > 0.0)
    std::cout << "horizon " << opt.horizon << " periods";
  if (opt.wall_limit_seconds > 0.0)
    std::cout << (opt.horizon > 0.0 ? ", " : "") << "wall limit "
              << opt.wall_limit_seconds << " s";
  std::cout << "\narms: loss " << opt.loss << ", adversary "
            << opt.adversary_fraction << " (" << opt.adversary_attack
            << (opt.defended ? ", defended" : ", open") << "), observer "
            << opt.observer_coverage << "\n"
            << "==============================================================\n";

  const telemetry::ServiceModeReport report =
      telemetry::run_service_mode(opt);

  for (const std::string& rejected : report.rejected_checkpoints)
    std::cerr << "checkpoint rejected: " << rejected << "\n";
  if (opt.resume) {
    if (report.resumed)
      std::cout << "resumed from checkpoint at sim time "
                << report.resumed_at << "\n";
    else
      std::cout << "no usable checkpoint; cold start\n";
  }
  if (report.checkpoints_written > 0)
    std::cout << "wrote " << report.checkpoints_written
              << " checkpoint(s) -> " << opt.checkpoint_dir << "\n";
  if (report.interrupted)
    std::cout << "drained on signal at sim time " << report.sim_time << "\n";

  if (report.port != 0)
    std::cout << "telemetry: served " << report.scrapes_served
              << " scrapes on port " << report.port << "\n";
  if (report.samples_taken > 0)
    std::cout << "telemetry: " << report.samples_taken << " samples"
              << (opt.telemetry_out.empty()
                      ? ""
                      : " -> " + opt.telemetry_out)
              << "\n";

  const double eps = report.wall_seconds > 0.0
                         ? static_cast<double>(report.events) /
                               report.wall_seconds
                         : 0.0;
  std::cout << "\nstopped at sim time " << report.sim_time << " ("
            << (report.horizon_reached
                    ? "horizon"
                    : (report.interrupted ? "signal" : "wall limit"))
            << "), "
            << report.wall_seconds << " s wall\n"
            << report.events << " events, " << eps << " events/s, "
            << eps / static_cast<double>(opt.shards) << " events/s/core\n"
            << "fingerprint " << std::hex << report.fingerprint << std::dec
            << "\noverlay: " << report.overlay_edges << " edges, "
            << report.online << " online, fraction_disconnected "
            << report.fraction_disconnected << "\n"
            << "health: completion " << report.health.completion_rate()
            << ", honest completion "
            << report.health.honest_completion_rate() << ", delivery "
            << report.health.delivery_rate() << "\n";
  if (!report.shard_stats.empty() && opt.profile) {
    std::cout << "  shard  events      busy_s   stall_s  busy_ratio\n";
    for (std::size_t s = 0; s < report.shard_stats.size(); ++s) {
      const auto& st = report.shard_stats[s];
      const double denom = st.busy_seconds + st.stall_seconds;
      std::printf("  %-6zu %-11llu %-8.3f %-8.3f %-8.3f\n", s,
                  static_cast<unsigned long long>(st.events),
                  st.busy_seconds, st.stall_seconds,
                  denom > 0.0 ? st.busy_seconds / denom : 0.0);
    }
  }

  if (cli.has("json")) {
    const std::string path = cli.get_string("json", "");
    if (path.empty()) {
      std::cerr << "--json needs a path\n";
      return 2;
    }
    runner::Json doc = runner::Json::object();
    doc["artefact"] = std::string("service_mode");
    doc["schema_version"] =
        static_cast<std::int64_t>(experiments::kFigureJsonSchemaVersion);
    doc["nodes"] = static_cast<std::uint64_t>(opt.nodes);
    doc["alpha"] = opt.alpha;
    doc["seed"] = opt.seed;
    doc["shards"] = static_cast<std::uint64_t>(opt.shards);
    doc["horizon"] = opt.horizon;
    doc["wall_limit_seconds"] = opt.wall_limit_seconds;
    doc["horizon_reached"] = report.horizon_reached;
    doc["sim_time"] = report.sim_time;
    doc["wall_seconds"] = report.wall_seconds;
    doc["events"] = report.events;
    doc["events_per_second"] = eps;
    doc["events_per_second_per_core"] = eps / static_cast<double>(opt.shards);
    doc["fingerprint"] = report.fingerprint;
    doc["online"] = static_cast<std::uint64_t>(report.online);
    doc["overlay_edges"] = static_cast<std::uint64_t>(report.overlay_edges);
    doc["fraction_disconnected"] = report.fraction_disconnected;
    doc["peak_rss_bytes"] =
        static_cast<std::uint64_t>(report.peak_rss_bytes);
    doc["node_state_bytes"] =
        static_cast<std::uint64_t>(report.node_state_bytes);
    doc["telemetry_port"] = static_cast<std::int64_t>(report.port);
    doc["scrapes_served"] = report.scrapes_served;
    doc["samples_taken"] = report.samples_taken;
    doc["resumed"] = report.resumed;
    doc["resumed_at"] = report.resumed_at;
    doc["checkpoints_written"] = report.checkpoints_written;
    doc["interrupted"] = report.interrupted;
    doc["metrics"] = obs::to_json(report.metrics);
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
