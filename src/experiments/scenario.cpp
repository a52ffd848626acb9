#include "experiments/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>

#include "churn/churn_driver.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/check.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_stream.hpp"
#include "graph/components.hpp"
#include "graph/csr.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "metrics/streaming_connectivity.hpp"
#include "overlay/sharded_service.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::experiments {

std::unique_ptr<churn::ChurnModel> ChurnSpec::make() const {
  PPO_CHECK_MSG(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
  if (pareto) {
    PPO_CHECK_MSG(alpha < 1.0, "pareto churn needs alpha < 1");
    return std::make_unique<churn::ParetoChurn>(
        churn::ParetoChurn::from_availability(pareto_shape, alpha,
                                              mean_offline));
  }
  return std::make_unique<churn::ExponentialChurn>(
      churn::ExponentialChurn::from_availability(alpha, mean_offline));
}

namespace {

/// The measurement loops step by `sample_every` until the window ends,
/// so a cadence <= 0 or NaN would never end them.
void check_window(const MeasureWindow& window) {
  PPO_CHECK_MSG(std::isfinite(window.sample_every) && window.sample_every > 0.0,
                "sample_every must be finite and > 0");
  PPO_CHECK_MSG(std::isfinite(window.warmup) && window.warmup >= 0.0,
                "warmup must be finite and >= 0");
  PPO_CHECK_MSG(std::isfinite(window.measure) && window.measure >= 0.0,
                "measure must be finite and >= 0");
}

void accumulate(SnapshotStats& stats, const metrics::GraphMetrics& m,
                std::size_t total_nodes, std::size_t total_edges) {
  stats.frac_disconnected.add(m.fraction_disconnected);
  stats.norm_apl.add(m.normalized_avg_path_length);
  stats.online_fraction.add(static_cast<double>(m.online_nodes) /
                            static_cast<double>(total_nodes));
  stats.online_edges.add(static_cast<double>(m.online_edges));
  stats.total_edges.add(static_cast<double>(total_edges));
}

/// Installs the scenario's service-level faults: pseudonym blackouts
/// become data windows the service's resolve() consults, and
/// node-crash bursts from the fault plan (the same victims for every
/// K — the stream is seed-derived) are scheduled per victim. Returns
/// the armed injector, or nullptr when there is no crash to schedule.
std::unique_ptr<fault::FaultInjector> arm_service_faults(
    sim::ShardedSimulator& sim, overlay::ShardedOverlayService& service,
    const OverlayScenario& scenario) {
  service.set_pseudonym_blackout_windows(
      scenario.service_faults.pseudonym_blackouts);
  if (!scenario.faults || !scenario.faults->has_node_crashes()) return nullptr;
  fault::FaultInjector::Hooks hooks;
  hooks.fail_node = [&service](graph::NodeId v) {
    service.churn_driver().fail_permanently(v);
  };
  hooks.revive_node = [&service](graph::NodeId v) {
    service.churn_driver().revive(v);
  };
  auto injector = std::make_unique<fault::FaultInjector>(
      sim, std::move(hooks),
      fault::materialize_node_crashes(*scenario.faults, service.num_nodes()));
  injector->arm();
  return injector;
}

overlay::OverlayServiceOptions service_options(
    const OverlayScenario& scenario) {
  overlay::OverlayServiceOptions options;
  options.params = scenario.params;
  options.link_faults = scenario.faults;
  options.adversary = scenario.adversary;
  options.observer = scenario.observer;
  return options;
}

/// The steady-state measurement loop. run_until(t) advances the clock
/// to t; the local `now` bookkeeping keeps the sample times exact.
///
/// Snapshot-free: each sample pulls the service's memoized overlay
/// edge list and rebuilds one reused CSR scratch graph in place — no
/// per-sample Graph materialization (the old path allocated one
/// adjacency vector per node per sample). Neighbor slices stay in
/// counting-sort order; measure_graph never probes edge membership,
/// and every metric it computes is a function of the edge SET alone,
/// so the values are bit-identical to the snapshot path.
OverlayRunResult measure_overlay(sim::ShardedSimulator& sim,
                                 overlay::ShardedOverlayService& service,
                                 const OverlayScenario& scenario,
                                 std::size_t n) {
  Rng metric_rng(scenario.seed ^ 0xA11CE5);
  OverlayRunResult result;

  sim.run_until(scenario.window.warmup);
  double now = scenario.window.warmup;
  const double end = scenario.window.warmup + scenario.window.measure;
  graph::CsrGraph scratch;
  while (true) {
    scratch.assign_from_edges(n, service.overlay_edges(),
                              /*sort_neighbors=*/false);
    const auto m =
        metrics::measure_graph(scratch, service.online_mask(), n, metric_rng,
                               scenario.window.apl_sources);
    accumulate(result.stats, m, n, scratch.num_edges());
    if (now + scenario.window.sample_every > end + 1e-9) break;
    now += scenario.window.sample_every;
    sim.run_until(now);
  }

  // Final-sample artifacts (scratch still holds the last sample).
  result.final_degree =
      graph::degree_histogram(scratch, service.online_mask());
  result.final_total_edges = scratch.num_edges();

  result.per_node.reserve(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto& node = service.node(v);
    const auto& c = node.counters();
    OverlayRunResult::PerNode pn;
    pn.trust_degree = node.trust_degree();
    pn.max_out_degree = c.max_out_degree;
    pn.messages_per_online_period =
        c.online_ticks == 0 ? 0.0
                            : static_cast<double>(c.messages_sent()) /
                                  static_cast<double>(c.online_ticks);
    result.per_node.push_back(pn);
  }
  result.replacements = service.total_replacements().replacements();
  result.messages_total = service.total_counters().messages_sent();
  result.health = service.protocol_health();
  if (service.observer() != nullptr)
    result.observations = service.observer()->merged();
  return result;
}

/// Time-series loop (Figures 8 and 9). Connectivity tracking streams
/// the memoized overlay edge list through a union-find instead of
/// snapshotting a Graph and running the full metric suite: the trace
/// records only fraction_disconnected, which is a pure function of the
/// edge set.
OverlayTrace measure_overlay_trace(sim::ShardedSimulator& sim,
                                   overlay::ShardedOverlayService& service,
                                   const OverlayTraceSpec& spec,
                                   std::size_t n) {
  OverlayTrace trace;
  metrics::StreamingConnectivity connectivity;

  std::uint64_t last_replacements = 0;
  double last_time = 0.0;
  for (double t = spec.sample_every; t <= spec.horizon + 1e-9;
       t += spec.sample_every) {
    sim.run_until(t);
    if (spec.track_connectivity) {
      trace.connectivity.record(
          t, connectivity.fraction_disconnected(n, service.overlay_edges(),
                                                service.online_mask()));
    }
    if (spec.track_replacements) {
      const std::uint64_t now_total =
          service.total_replacements().replacements();
      const double dt = t - last_time;
      const double online =
          std::max<std::size_t>(1, service.online_count());
      trace.replacements.record(
          t, static_cast<double>(now_total - last_replacements) / dt /
                 static_cast<double>(online));
      last_replacements = now_total;
      last_time = t;
    }
  }
  trace.health = service.protocol_health();
  return trace;
}

// --- warm-start forking (DESIGN.md §13) ------------------------------

/// Whether the scenario's warmup state fits the warm-start scope: no
/// scheduled service faults or node-crash bursts, whose inputs the
/// cell hash does not cover.
bool warm_start_usable(const OverlayScenario& scenario) {
  if (scenario.warm_start_dir.empty()) return false;
  if (!scenario.service_faults.empty()) return false;
  return !(scenario.faults && scenario.faults->has_node_crashes());
}

/// The cell's full identity: every input that shapes the warmup
/// trajectory. Two scenarios share a cached warmup snapshot iff this
/// hash matches (the shard count is not part of it: snapshots restore
/// at any K).
std::uint64_t warm_cell_hash(const graph::Graph& trust,
                             const OverlayScenario& scenario) {
  ckpt::Writer w;
  w.u64(ckpt::fingerprint_graph(trust));
  w.u64(scenario.seed);
  w.f64(scenario.window.warmup);
  w.f64(scenario.churn.alpha);
  w.f64(scenario.churn.mean_offline);
  w.b(scenario.churn.pareto);
  w.f64(scenario.churn.pareto_shape);
  const overlay::OverlayParams& p = scenario.params;
  w.u64(p.cache_size);
  w.u64(p.shuffle_length);
  w.u64(p.target_links);
  w.u64(p.min_slots);
  w.f64(p.pseudonym_lifetime);
  w.f64(p.shuffle_period);
  w.u32(p.pseudonym_bits);
  w.b(p.shuffle_on_rejoin);
  w.f64(p.shuffle_timeout);
  w.u64(p.shuffle_max_retries);
  w.f64(p.shuffle_retry_backoff);
  w.b(p.adaptive_lifetime);
  w.f64(p.adaptive_lifetime_factor);
  w.f64(p.adaptive_min_lifetime);
  w.f64(p.adaptive_max_lifetime);
  w.b(p.population_estimation);
  w.b(p.naive_sampling);
  w.b(p.validate_received);
  w.f64(p.max_accepted_lifetime);
  w.u64(p.peer_rate_limit);
  w.f64(p.peer_rate_window);
  w.f64(p.sampler_min_dwell);
  w.b(scenario.faults.has_value());
  if (scenario.faults) {
    const fault::FaultPlan& f = *scenario.faults;
    w.f64(f.drop_probability);
    w.f64(f.duplicate_probability);
    w.f64(f.jitter_min);
    w.f64(f.jitter_max);
    w.f64(f.reorder_probability);
    w.f64(f.reorder_min_delay);
    w.f64(f.reorder_max_delay);
    w.size(f.link_outages.size());
    for (const fault::Window& win : f.link_outages) {
      w.f64(win.start);
      w.f64(win.end);
    }
    w.size(f.partitions.size());
    for (const fault::Partition& part : f.partitions) {
      w.f64(part.window.start);
      w.f64(part.window.end);
      w.size(part.group.size());
      for (const graph::NodeId v : part.group) w.u32(v);
    }
    w.size(f.link_drop_overrides.size());
    for (const fault::LinkDropOverride& o : f.link_drop_overrides) {
      w.u32(o.from);
      w.u32(o.to);
      w.f64(o.drop_prob);
    }
    w.f64(f.gilbert_elliott.p_good_to_bad);
    w.f64(f.gilbert_elliott.p_bad_to_good);
    w.f64(f.gilbert_elliott.good_drop);
    w.f64(f.gilbert_elliott.bad_drop);
    w.f64(f.gilbert_elliott.step);
    w.f64(f.gilbert_elliott.horizon);
    w.f64(f.diurnal.amplitude);
    w.f64(f.diurnal.period);
    w.f64(f.diurnal.phase);
    w.u64(f.seed);
  }
  w.b(scenario.adversary.has_value());
  if (scenario.adversary) {
    const adversary::AdversaryPlan& a = *scenario.adversary;
    w.f64(a.polluter_fraction);
    w.f64(a.eclipser_fraction);
    w.f64(a.dropper_fraction);
    w.f64(a.replayer_fraction);
    w.f64(a.polluter_tick_multiplier);
    w.f64(a.forged_lifetime_factor);
    w.u64(a.eclipse_records);
    w.u64(a.eclipse_offset);
    w.u64(a.replay_memory);
    w.u64(a.seed);
  }
  w.b(scenario.observer.has_value());
  if (scenario.observer) {
    w.f64(scenario.observer->coverage);
    w.u64(scenario.observer->seed);
  }
  return ckpt::fnv1a(w.buffer());
}

std::string warm_cell_path(const std::string& dir, std::uint64_t hash) {
  char name[40];
  std::snprintf(name, sizeof name, "warm-s-%016llx.ppoc",
                static_cast<unsigned long long>(hash));
  return dir + "/" + name;
}

enum WarmOutcome { kCold = 0, kRestored = 1, kRejected = 2 };

// Process-wide warm-start tallies (see warm_start_stats()). Wall time
// is stored in integer microseconds so the accumulation stays a plain
// fetch_add on every toolchain.
std::atomic<std::uint64_t> g_warm_runs{0};
std::atomic<std::uint64_t> g_cold_runs{0};
std::atomic<std::uint64_t> g_warm_micros{0};
std::atomic<std::uint64_t> g_cold_micros{0};

void tally_warm_phase(bool restored, double seconds) {
  const auto micros = static_cast<std::uint64_t>(
      std::llround(std::max(0.0, seconds) * 1e6));
  if (restored) {
    g_warm_runs.fetch_add(1, std::memory_order_relaxed);
    g_warm_micros.fetch_add(micros, std::memory_order_relaxed);
  } else {
    g_cold_runs.fetch_add(1, std::memory_order_relaxed);
    g_cold_micros.fetch_add(micros, std::memory_order_relaxed);
  }
}

/// Drives `service` through the warmup phase using the cell cache:
/// restore the cached snapshot when present and valid, otherwise
/// start cold, simulate to the warmup point and populate the cache.
/// kRejected means a snapshot passed the file-level checks but failed
/// payload restore — the service is now indeterminate and the caller
/// must reconstruct it and call again with `allow_restore = false`.
/// Fills the result's warm-start accounting on kCold/kRestored.
WarmOutcome warm_start_phase(sim::ShardedSimulator& sim,
                             overlay::ShardedOverlayService& service,
                             const graph::Graph& trust,
                             const OverlayScenario& scenario,
                             bool allow_restore, OverlayRunResult& result) {
  const std::uint64_t cell = warm_cell_hash(trust, scenario);
  const std::string path = warm_cell_path(scenario.warm_start_dir, cell);
  const auto wall_start = std::chrono::steady_clock::now();
  const auto elapsed = [&wall_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  if (allow_restore) {
    const ckpt::LoadResult lr = ckpt::load_file(path);
    if (lr.ok() &&
        ckpt::check_compat(lr.header, ckpt::BackendKind::kSharded,
                           ckpt::fingerprint_graph(trust),
                           cell) == ckpt::Status::kOk) {
      try {
        ckpt::Reader r(lr.payload);
        service.restore_from_checkpoint(r);
        result.warm_started = true;
        result.warmup_wall_seconds = elapsed();
        tally_warm_phase(true, result.warmup_wall_seconds);
        return kRestored;
      } catch (const ckpt::ParseError&) {
        // A sealed, compat-checked file whose payload still fails is a
        // schema skew (e.g. stale cache across builds): drop it and
        // signal the caller to reconstruct and go cold.
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return kRejected;
      }
    }
  }

  service.start();
  sim.run_until(scenario.window.warmup);
  std::error_code ec;
  std::filesystem::create_directories(scenario.warm_start_dir, ec);
  ckpt::Writer w;
  service.save_checkpoint(w);
  ckpt::Header h;
  h.shards_hint = static_cast<std::uint32_t>(scenario.shards);
  h.graph_fingerprint = ckpt::fingerprint_graph(trust);
  h.config_hash = cell;
  h.seed = scenario.seed;
  h.sim_time = scenario.window.warmup;
  ckpt::save_file(path, h, w.buffer(), nullptr);
  result.warm_started = false;
  result.warmup_wall_seconds = elapsed();
  tally_warm_phase(false, result.warmup_wall_seconds);
  return kCold;
}

}  // namespace

WarmStartStats warm_start_stats() {
  WarmStartStats s;
  s.warm_runs = g_warm_runs.load(std::memory_order_relaxed);
  s.cold_runs = g_cold_runs.load(std::memory_order_relaxed);
  s.warm_seconds =
      static_cast<double>(g_warm_micros.load(std::memory_order_relaxed)) / 1e6;
  s.cold_seconds =
      static_cast<double>(g_cold_micros.load(std::memory_order_relaxed)) / 1e6;
  return s;
}

void reset_warm_start_stats() {
  g_warm_runs.store(0, std::memory_order_relaxed);
  g_cold_runs.store(0, std::memory_order_relaxed);
  g_warm_micros.store(0, std::memory_order_relaxed);
  g_cold_micros.store(0, std::memory_order_relaxed);
}

OverlayRunResult run_overlay(const graph::Graph& trust,
                             const OverlayScenario& scenario) {
  check_window(scenario.window);
  const auto model = scenario.churn.make();
  const overlay::OverlayServiceOptions options = service_options(scenario);
  const std::size_t n = trust.num_nodes();

  const bool warm = warm_start_usable(scenario);
  OverlayRunResult warm_info;

  // One reconstruction retry: a snapshot rejected mid-restore leaves
  // the service indeterminate, so the cold fallback gets a fresh one.
  for (bool allow_restore : {true, false}) {
    sim::ShardedSimulator sim(
        overlay::simulator_options(options, n, scenario.shards));
    overlay::ShardedOverlayService service(sim, trust, *model, options,
                                           scenario.seed);
    const auto injector = arm_service_faults(sim, service, scenario);
    if (warm) {
      if (warm_start_phase(sim, service, trust, scenario, allow_restore,
                           warm_info) == kRejected)
        continue;
    } else {
      service.start();
    }
    auto result = measure_overlay(sim, service, scenario, n);
    result.warm_started = warm_info.warm_started;
    result.warmup_wall_seconds = warm_info.warmup_wall_seconds;
    return result;
  }
  PPO_CHECK_MSG(false, "warm-start retry loop cannot fall through");
  return {};
}

bool runs_identical(const OverlayRunResult& a, const OverlayRunResult& b) {
  return a.stats.frac_disconnected.mean() ==
             b.stats.frac_disconnected.mean() &&
         a.stats.norm_apl.mean() == b.stats.norm_apl.mean() &&
         a.replacements == b.replacements &&
         a.messages_total == b.messages_total &&
         a.final_total_edges == b.final_total_edges && a.health == b.health;
}

StaticRunResult run_static(const graph::Graph& g, const ChurnSpec& churn_spec,
                           const MeasureWindow& window, std::uint64_t seed) {
  check_window(window);
  // One shard. Nothing crosses a shard at K = 1, so the window length
  // is free; one sampling interval keeps the window count small.
  sim::ShardedSimulator sim(
      {.num_actors = g.num_nodes(), .lookahead = window.sample_every});
  const auto model = churn_spec.make();
  churn::ChurnDriver driver(sim, g.num_nodes(), *model, Rng(seed));
  driver.start({});

  Rng metric_rng(seed ^ 0xB0B);
  StaticRunResult result;
  const std::size_t n = g.num_nodes();

  sim.run_until(window.warmup);
  const double end = window.warmup + window.measure;
  while (true) {
    const auto m = metrics::measure_graph(g, driver.online_mask(), n,
                                          metric_rng, window.apl_sources);
    accumulate(result.stats, m, n, g.num_edges());
    if (sim.now() + window.sample_every > end + 1e-9) {
      result.final_degree = m.degree;
      break;
    }
    sim.run_until(sim.now() + window.sample_every);
  }
  return result;
}

OverlayTrace run_overlay_trace(const graph::Graph& trust,
                               OverlayScenario scenario,
                               const OverlayTraceSpec& spec) {
  const auto model = scenario.churn.make();
  const overlay::OverlayServiceOptions options = service_options(scenario);
  const std::size_t n = trust.num_nodes();

  sim::ShardedSimulator sim(
      overlay::simulator_options(options, n, scenario.shards));
  overlay::ShardedOverlayService service(sim, trust, *model, options,
                                         scenario.seed);
  const auto injector = arm_service_faults(sim, service, scenario);
  service.start();
  return measure_overlay_trace(sim, service, spec, n);
}

metrics::TimeSeries run_static_trace(const graph::Graph& g,
                                     const ChurnSpec& churn_spec,
                                     double horizon, double sample_every,
                                     std::uint64_t seed) {
  // One shard, windows of one sampling interval (see run_static).
  sim::ShardedSimulator sim(
      {.num_actors = g.num_nodes(), .lookahead = sample_every});
  const auto model = churn_spec.make();
  churn::ChurnDriver driver(sim, g.num_nodes(), *model, Rng(seed));
  driver.start({});

  metrics::TimeSeries series("trust-graph");
  Rng metric_rng(seed ^ 0xF00);
  for (double t = sample_every; t <= horizon + 1e-9; t += sample_every) {
    sim.run_until(t);
    series.record(t, graph::fraction_disconnected(g, driver.online_mask()));
  }
  return series;
}

graph::Graph er_reference(std::size_t nodes, std::size_t edges,
                          std::uint64_t seed) {
  Rng rng(seed ^ 0xE4);
  return graph::erdos_renyi_gnm(nodes, edges, rng);
}

}  // namespace ppo::experiments
