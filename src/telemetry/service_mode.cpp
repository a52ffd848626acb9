#include "telemetry/service_mode.hpp"

#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "churn/churn_model.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "experiments/adversary_study.hpp"
#include "experiments/figure_json.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "metrics/streaming_connectivity.hpp"
#include "overlay/sharded_service.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/sampler.hpp"

namespace ppo::telemetry {

namespace {

std::size_t peak_rss_bytes() {
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

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Set by the SIGINT/SIGTERM handler; the driver polls it at slice
/// boundaries (async-signal-safe: the handler only stores a flag).
volatile std::sig_atomic_t g_stop_requested = 0;

void on_stop_signal(int) { g_stop_requested = 1; }

/// Installs the graceful-drain handlers for the scope of one run and
/// restores whatever was there before.
struct SignalGuard {
  explicit SignalGuard(bool arm) : armed_(arm) {
    if (!armed_) return;
    g_stop_requested = 0;
    old_int_ = std::signal(SIGINT, on_stop_signal);
    old_term_ = std::signal(SIGTERM, on_stop_signal);
  }
  ~SignalGuard() {
    if (!armed_) return;
    std::signal(SIGINT, old_int_);
    std::signal(SIGTERM, old_term_);
  }

 private:
  bool armed_ = false;
  void (*old_int_)(int) = SIG_DFL;
  void (*old_term_)(int) = SIG_DFL;
};

/// Workload identity for Header::config_hash: every option that
/// shapes the trajectory prefix (graph, churn, protocol parameters,
/// fault/adversary/observer arms, and the run_until slicing grid —
/// the lockstep windows re-anchor per driver call, so a different
/// slice is a different trajectory). Horizon, wall limit and the
/// telemetry plane are deliberately excluded: a resumed run may run
/// longer or with telemetry toggled. The shard count is also excluded
/// — checkpoints restore at any K.
std::uint64_t config_hash(const ServiceModeOptions& opt) {
  ckpt::Writer w;
  w.u64(opt.nodes);
  w.f64(opt.alpha);
  w.u64(opt.seed);
  w.f64(opt.slice);
  w.f64(opt.loss);
  w.f64(opt.adversary_fraction);
  w.str(opt.adversary_attack);
  w.b(opt.defended);
  w.f64(opt.observer_coverage);
  w.u64(opt.cache_size);
  w.u64(opt.shuffle_length);
  w.u64(opt.target_links);
  w.f64(opt.pseudonym_lifetime);
  return ckpt::fnv1a(w.buffer());
}

/// A validated resume candidate: structurally sound file whose header
/// matched this run's graph and config.
struct ResumeCandidate {
  std::string path;
  ckpt::Header header;
  std::string payload;
};

/// Uninstalls the live registry even on the exception paths.
struct LiveMetricsGuard {
  explicit LiveMetricsGuard(obs::MetricsRegistry* registry) {
    if (registry != nullptr) obs::install_live_metrics(registry);
  }
  ~LiveMetricsGuard() { obs::uninstall_live_metrics(); }
};

/// What the previous slice boundary saw, so counter updates can be
/// expressed as monotone deltas.
struct SliceBaseline {
  std::uint64_t events = 0;
  metrics::ProtocolHealth health;
  std::vector<sim::ShardedSimulator::ShardStats> stats;
  double wall_seconds = 0.0;
};

/// Slice-boundary registry refresh: monotone counters (every health
/// total included) advance by their delta since the last boundary,
/// and the operator-facing gauges (rates, ratios, overlay state) are
/// recomputed. Runs on the driver thread between run_until slices —
/// every input is a plain read of simulation state, so refreshing
/// cannot perturb the trajectory.
void refresh_registry(obs::MetricsRegistry& registry, SliceBaseline& prev,
                      std::uint64_t events,
                      const metrics::ProtocolHealth& health,
                      const std::vector<sim::ShardedSimulator::ShardStats>&
                          stats,
                      double wall_seconds, double sim_time, std::size_t cores,
                      std::size_t online, std::size_t overlay_edges) {
  registry.add_counter("sim_events", events - prev.events);
  experiments::add_health_metrics(registry, health, {}, prev.health);

  registry.set_gauge("service_sim_time_periods", sim_time);
  registry.set_gauge("service_wall_seconds", wall_seconds);
  registry.set_gauge("service_online_nodes", static_cast<double>(online));
  registry.set_gauge("service_overlay_edges",
                     static_cast<double>(overlay_edges));

  const double slice_wall = wall_seconds - prev.wall_seconds;
  const double slice_events = static_cast<double>(events - prev.events);
  if (slice_wall > 0.0) {
    registry.set_gauge("service_events_per_second", slice_events / slice_wall);
    registry.set_gauge(
        "service_events_per_second_per_core",
        slice_events / slice_wall / static_cast<double>(cores));
  }
  for (std::size_t s = 0; s < stats.size(); ++s) {
    const obs::MetricDims dims{{"shard", std::to_string(s)}};
    const auto& now_s = stats[s];
    const bool have_prev = s < prev.stats.size();
    const double d_busy =
        now_s.busy_seconds - (have_prev ? prev.stats[s].busy_seconds : 0.0);
    const double d_stall =
        now_s.stall_seconds - (have_prev ? prev.stats[s].stall_seconds : 0.0);
    const double d_events = static_cast<double>(
        now_s.events - (have_prev ? prev.stats[s].events : 0));
    if (d_busy + d_stall > 0.0) {
      registry.set_gauge("shard_busy_ratio", d_busy / (d_busy + d_stall),
                         dims);
      registry.set_gauge("shard_stall_ratio", d_stall / (d_busy + d_stall),
                         dims);
    }
    if (slice_wall > 0.0)
      registry.set_gauge("shard_events_per_second", d_events / slice_wall,
                         dims);
  }

  prev.events = events;
  prev.health = health;
  prev.stats = stats;
  prev.wall_seconds = wall_seconds;
}

}  // namespace

std::uint64_t trajectory_fingerprint(
    std::span<const std::pair<graph::NodeId, graph::NodeId>> edges,
    const metrics::ProtocolHealth& health) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [u, v] : edges) {
    mix(u);
    mix(v);
  }
  mix(health.requests_sent);
  mix(health.responses_sent);
  mix(health.exchanges_completed);
  mix(health.messages_sent);
  mix(health.messages_delivered);
  return h;
}

ServiceModeReport run_service_mode(const ServiceModeOptions& opt) {
  PPO_CHECK_MSG(opt.horizon > 0.0 || opt.wall_limit_seconds > 0.0,
                "service mode needs a horizon or a wall limit");
  PPO_CHECK_MSG(opt.slice > 0.0, "service mode needs a positive slice");

  // Same workload construction as scale_single_run: a scale-free,
  // clustered trust graph standing in for the sampled social graph,
  // exponential on/off churn calibrated to the target availability.
  Rng graph_rng(opt.seed ^ 0x6EA4);
  const graph::Graph trust =
      graph::holme_kim(opt.nodes, 5, 0.3, graph_rng);
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(opt.alpha, 30.0);

  overlay::OverlayServiceOptions options;
  options.params.cache_size = opt.cache_size;
  options.params.shuffle_length = opt.shuffle_length;
  options.params.target_links = opt.target_links;
  options.params.pseudonym_lifetime = opt.pseudonym_lifetime;
  if (opt.defended) {
    // The §III-E defense arm, same knobs as the adversary study.
    const experiments::AdversarySpec defaults;
    options.params.validate_received = true;
    options.params.peer_rate_limit = defaults.peer_rate_limit;
    options.params.peer_rate_window = defaults.peer_rate_window;
    options.params.sampler_min_dwell = defaults.sampler_min_dwell;
  }
  if (opt.loss > 0.0) {
    // Lost shuffles time out and are retried, with the adversary
    // study's timeout and retry budget.
    const experiments::AdversarySpec defaults;
    options.params.shuffle_timeout = defaults.shuffle_timeout;
    options.params.shuffle_max_retries = defaults.max_retries;
    fault::FaultPlan plan;
    plan.drop_probability = opt.loss;
    options.link_faults = plan;
  }
  if (opt.adversary_fraction > 0.0)
    options.adversary = experiments::make_attack_plan(
        opt.adversary_attack, opt.adversary_fraction, opt.seed);
  if (opt.observer_coverage > 0.0) {
    inference::ObserverPlan plan;
    plan.coverage = opt.observer_coverage;
    plan.seed = opt.seed ^ 0x0B5E;
    options.observer = plan;
  }

  ServiceModeReport report;
  obs::MetricsRegistry registry;
  const bool telemetry_on = opt.port >= 0 || !opt.telemetry_out.empty();
  // Install the live registry so the instrumentation seams (shuffle
  // latency, DHT hops, shard windows) stream into it. The seams only
  // read simulation state, so installing cannot change a trajectory —
  // the determinism tests pin that down.
  LiveMetricsGuard live(telemetry_on ? &registry : nullptr);

  // Declared before the server so its storage outlives the handler
  // closure (the server is stopped first on every exit path).
  std::unique_ptr<TelemetryTicker> ticker;
  std::unique_ptr<HttpServer> server;
  if (opt.port >= 0) {
    server = std::make_unique<HttpServer>(
        static_cast<std::uint16_t>(opt.port),
        [&registry, &ticker](const std::string& path) -> HttpResponse {
          if (path == "/metrics")
            return {200, prometheus_content_type(),
                    render_prometheus(registry)};
          if (path == "/samples" && ticker != nullptr)
            return {200, "application/x-ndjson; charset=utf-8",
                    ticker->ring().recent_jsonl()};
          if (path == "/healthz")
            return {200, "text/plain; charset=utf-8", "ok\n"};
          return {404, "text/plain; charset=utf-8", "not found\n"};
        });
    report.port = server->port();
  }
  if (telemetry_on) {
    TelemetryTicker::Options topt;
    topt.interval_seconds = opt.sample_interval_seconds;
    topt.ring_capacity = opt.ring_capacity;
    topt.jsonl_path = opt.telemetry_out;
    ticker = std::make_unique<TelemetryTicker>(registry, topt);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  SignalGuard signals(opt.handle_signals);
  SliceBaseline baseline;
  metrics::StreamingConnectivity connectivity;

  // --- checkpoint plane -------------------------------------------------
  const bool ckpt_armed = !opt.checkpoint_dir.empty();
  std::uint64_t graph_fp = 0;
  std::uint64_t cfg_hash = 0;
  if (ckpt_armed) {
    std::error_code ec;
    std::filesystem::create_directories(opt.checkpoint_dir, ec);
    graph_fp = ckpt::fingerprint_graph(trust);
    cfg_hash = config_hash(opt);
  }

  // Resume scan: newest file first, falling back past anything that
  // fails validation (corrupt newest file after a crash mid-write is
  // the expected case — the previous snapshot is still good). Files
  // that fail payload-level restore are rejected the same way, one
  // construction retry per candidate.
  std::vector<ResumeCandidate> candidates;
  if (ckpt_armed && opt.resume) {
    const auto files = ckpt::list_checkpoints(opt.checkpoint_dir);
    for (auto it = files.rbegin(); it != files.rend(); ++it) {
      ckpt::LoadResult lr = ckpt::load_file(*it);
      ckpt::Status st = lr.status;
      if (st == ckpt::Status::kOk)
        st = ckpt::check_compat(lr.header, ckpt::BackendKind::kSharded,
                                graph_fp, cfg_hash);
      if (st != ckpt::Status::kOk) {
        std::string why = *it + ": " + ckpt::status_name(st);
        if (!lr.message.empty()) why += " — " + lr.message;
        report.rejected_checkpoints.push_back(std::move(why));
        continue;
      }
      candidates.push_back({*it, lr.header, std::move(lr.payload)});
    }
  }

  const auto write_checkpoint = [&](overlay::ShardedOverlayService& service,
                                    double sim_time) {
    ckpt::Writer w;
    service.save_checkpoint(w);
    ckpt::Header h;
    h.shards_hint = static_cast<std::uint32_t>(opt.shards);
    h.graph_fingerprint = graph_fp;
    h.config_hash = cfg_hash;
    h.seed = opt.seed;
    h.sim_time = sim_time;
    // Indexed by slice number: monotone, collision-free, and a resumed
    // run that re-reaches the same boundary atomically replaces the
    // file it restored from.
    const auto index =
        static_cast<std::uint64_t>(std::llround(sim_time / opt.slice));
    std::string error;
    if (ckpt::save_file(ckpt::checkpoint_path(opt.checkpoint_dir, index), h,
                        w.buffer(), &error))
      ++report.checkpoints_written;
  };

  // Slice the run, refresh the registry between slices, stop at the
  // horizon, the wall limit or a drain signal. A resumed run continues
  // the same slicing grid (checkpoints land on slice boundaries),
  // which is what keeps the lockstep windows bit-identical to an
  // uninterrupted run.
  const auto drive = [&](sim::ShardedSimulator& sim,
                         overlay::ShardedOverlayService& service,
                         double start_time, bool was_resumed) {
    if (was_resumed) {
      // Telemetry counters stay process-local: advance the baseline to
      // the restored totals so the first slice reports its own delta.
      baseline.events = sim.events_executed();
      baseline.health = service.protocol_health();
    } else {
      service.start();
    }
    double target = start_time;
    double next_ckpt = start_time + opt.checkpoint_every;
    for (;;) {
      bool final_slice = false;
      target += opt.slice;
      if (opt.horizon > 0.0 && target >= opt.horizon) {
        target = opt.horizon;
        final_slice = true;
      }
      sim.run_until(target);
      refresh_registry(registry, baseline, sim.events_executed(),
                       service.protocol_health(), sim.shard_stats(),
                       wall_since(wall_start), target, opt.shards,
                       service.online_count(), service.overlay_edges().size());
      // Interval writes include one that lands on the horizon itself —
      // that is the warm-start shape: run to the warmup horizon,
      // snapshot, fork longer runs from it later.
      if (ckpt_armed && opt.checkpoint_every > 0.0 &&
          target >= next_ckpt - 1e-9) {
        write_checkpoint(service, target);
        while (next_ckpt <= target + 1e-9) next_ckpt += opt.checkpoint_every;
      }
      if (final_slice) {
        report.horizon_reached = true;
        break;
      }
      const bool stop_signal = g_stop_requested != 0;
      const bool wall_stop = opt.wall_limit_seconds > 0.0 &&
                             wall_since(wall_start) >= opt.wall_limit_seconds;
      if (stop_signal || wall_stop) {
        // Graceful drain: the slice already completed, so this is a
        // quiescent point — snapshot it so a --resume continues here.
        if (ckpt_armed) write_checkpoint(service, target);
        report.interrupted = stop_signal;
        break;
      }
    }
    report.sim_time = target;
    report.events = sim.events_executed();
    report.health = service.protocol_health();
    report.online = service.online_count();
    const auto edges = service.overlay_edges();
    report.overlay_edges = edges.size();
    report.fingerprint = trajectory_fingerprint(edges, report.health);
    report.fraction_disconnected = connectivity.fraction_disconnected(
        opt.nodes, edges, service.online_mask());
    report.node_state_bytes = service.node_state_bytes();
  };

  // Pops the next resume candidate and restores `service` from it.
  // Returns the snapshot time, or a negative value when the payload
  // was rejected (the caller reconstructs a fresh service and tries
  // the next-older candidate) .
  const auto try_restore =
      [&](overlay::ShardedOverlayService& service) -> double {
    ResumeCandidate cand = std::move(candidates.front());
    candidates.erase(candidates.begin());
    try {
      ckpt::Reader r(cand.payload);
      service.restore_from_checkpoint(r);
      return cand.header.sim_time;
    } catch (const ckpt::ParseError& e) {
      report.rejected_checkpoints.push_back(cand.path + ": payload — " +
                                            e.what());
      return -1.0;
    }
  };

  for (;;) {
    sim::ShardedSimulator::Options so =
        overlay::simulator_options(options, opt.nodes, opt.shards);
    so.profile = opt.profile;
    sim::ShardedSimulator sim(so);
    overlay::ShardedOverlayService service(sim, trust, model, options,
                                           opt.seed);
    double start_time = 0.0;
    if (!candidates.empty()) {
      start_time = try_restore(service);
      if (start_time < 0.0) continue;  // fresh service, next candidate
      report.resumed = true;
      report.resumed_at = start_time;
    }
    drive(sim, service, start_time, report.resumed);
    report.shard_stats = sim.shard_stats();
    break;
  }

  report.wall_seconds = wall_since(wall_start);
  report.peak_rss_bytes = peak_rss_bytes();
  if (ticker != nullptr) {
    ticker->stop();  // takes the final sample before we snapshot
    report.samples_taken = ticker->samples_taken();
  }
  if (server != nullptr) {
    server->stop();
    report.scrapes_served = server->requests_served();
  }
  report.metrics = registry.snapshot();
  return report;
}

}  // namespace ppo::telemetry
