#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "churn/churn_model.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "experiments/adversary_study.hpp"
#include "experiments/figures.hpp"
#include "experiments/workbench.hpp"
#include "fault/fault_plan.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "metrics/streaming_connectivity.hpp"
#include "obs/metrics_registry.hpp"
#include "overlay/sharded_service.hpp"
#include "sim/sharded_simulator.hpp"
#include "spans.hpp"
#include "telemetry/service_mode.hpp"

namespace perfbench {

namespace {

using namespace ppo;

// --- Horizons --------------------------------------------------------
// Simulated periods per second of run length. Calibrated once on the
// reference host (DESIGN.md) so that the measured phase lasts about
// --seconds there; fixed constants, so a faster program finishes the
// same simulated work sooner instead of doing more of it.
constexpr double kCrawlPeriodsPerSecond = 2.25;
constexpr double kCrawlSlice = 0.25;               // periods per slice
constexpr std::size_t kCrawlMeasureEvery = 8;      // slices
constexpr double kHostilePeriodsPerSecond = 1.75;
constexpr double kHostileSlice = 0.4;
constexpr std::size_t kHostileSnapshotEvery = 8;   // slices
constexpr std::size_t kHostileResumeTail = 2;      // slices replayed
// fig3_paper keeps the program's default measurement window (50
// periods sampled every 10, the paper's cadence) and spends the rest of
// its horizon on warmup: 250 periods at 30 s. The warmup never drops
// below the ~200 periods the overlay takes to stabilize
// (experiments/scenario.hpp), so shorter runs measure the same steady
// state.
constexpr double kFig3PeriodsPerSecond = 10.0;
constexpr double kFig3MinWarmup = 200.0;
// The paper samples its trust graphs once and reuses them, so the
// figure benches' default graphs (seed 42) are fig3_paper's fixed
// dataset and the workload seed drives the sweep's stochastic inputs
// (churn, protocol draws, ER reference).
constexpr std::uint64_t kFig3GraphSeed = 42;
// The low alpha runs in eight cells (distinct cell seeds), which cuts
// the seed-to-seed spread of disconnected_frac. The alpha = 1.0 cell
// comes first, so one worker runs it while the other runs the cheap
// low-alpha cells, and it still sets the sweep time (DESIGN.md).
// Repeated alphas are fine: run_alpha_sweep seeds cells by index.
const std::vector<double> kFig3Alphas = {1.0,   0.125, 0.125, 0.125, 0.125,
                                         0.125, 0.125, 0.125, 0.125};

// Every workload repeats its one-time build this many times (keeping
// the last); setup_s is the median of their wall times.
constexpr std::size_t kSetups = 7;

constexpr double kMiB = 1024.0 * 1024.0;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / kMiB;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double graph_bytes(const graph::Graph& g) {
  return g.csr() != nullptr ? static_cast<double>(g.csr()->memory_bytes())
                            : 0.0;
}

std::size_t slice_count(double horizon, double slice) {
  return static_cast<std::size_t>(std::llround(horizon / slice));
}

/// Counters every overlay workload reports, read from the layers'
/// public accessors after the run.
void add_health_layers(Result& r, const metrics::ProtocolHealth& h) {
  r.layer["overlay.requests"] = static_cast<double>(h.requests_sent);
  r.layer["overlay.exchange_yield"] =
      ratio(static_cast<double>(h.exchanges_completed),
            static_cast<double>(h.requests_sent));
  r.layer["overlay.retries"] = static_cast<double>(h.request_retries);
  r.layer["overlay.timeouts"] = static_cast<double>(h.request_timeouts);
  r.layer["overlay.aborted"] = static_cast<double>(h.exchanges_aborted);
  r.layer["transport.msgs"] = static_cast<double>(h.messages_sent);
  r.layer["transport.delivery_ratio"] =
      ratio(static_cast<double>(h.messages_delivered),
            static_cast<double>(h.messages_sent));
  r.layer["adversary.injected"] = static_cast<double>(
      h.forged_injected + h.replays_injected + h.eclipse_records_injected);
  r.layer["adversary.rejected"] = static_cast<double>(
      h.forged_rejected + h.requests_rate_limited + h.displacements_damped);
}

void add_shard_layers(
    Result& r, const std::vector<sim::ShardedSimulator::ShardStats>& st) {
  std::uint64_t mailbox = 0, events = 0, max_events = 0, windows = 0;
  std::size_t max_queue = 0;
  double busy = 0.0, stall = 0.0;
  for (const auto& s : st) {
    mailbox += s.mailbox_out;
    events += s.events;
    max_events = std::max(max_events, s.events);
    windows = std::max(windows, s.windows);
    max_queue = std::max(max_queue, s.max_queue);
    busy += s.busy_seconds;
    stall += s.stall_seconds;
  }
  r.layer["sim.windows"] = static_cast<double>(windows);
  r.layer["sim.mailbox_out"] = static_cast<double>(mailbox);
  r.layer["sim.max_queue"] = static_cast<double>(max_queue);
  r.layer["sim.busy_s"] = busy;
  r.layer["sim.stall_s"] = stall;
  r.layer["sim.stall_frac"] = ratio(stall, busy + stall);
  r.layer["sim.shard_skew"] =
      st.empty() ? 0.0
                 : ratio(static_cast<double>(max_events),
                         static_cast<double>(events) /
                             static_cast<double>(st.size()));
}

/// Span self times turned into the per-layer time metrics (setup
/// layers per build, so the repeat count cancels out); the spans are
/// written to opt.spans_path.
void finish_spans(Result& r, const SpanRecorder& spans, const Options& opt) {
  if (!spans.enabled()) return;
  if (!opt.spans_path.empty() && !spans.write_jsonl(opt.spans_path))
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.spans_path.c_str());
  const auto self = spans.self_seconds();
  const auto get = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  r.layer["graph.gen_s"] = get("graph.gen") / kSetups;
  r.layer["overlay.build_s"] = get("overlay.build") / kSetups;
  r.layer["sim.run_s"] = get("sim.run");
  r.layer["metrics.measure_s"] = get("metrics.measure");
  r.layer["ckpt.save_s"] = get("ckpt.save");
  r.layer["ckpt.load_s"] = get("ckpt.load");
  const auto events = r.layer["sim.events"];
  r.layer["sim.ns_per_event"] = ratio(r.layer["sim.run_s"] * 1e9, events);
}

// --- Sharded overlay workloads (crawl_k4, hostile_service) -----------

struct ServiceSpec {
  std::size_t nodes = 0;
  std::size_t shards = 1;
  double alpha = 0.5;
  overlay::OverlayServiceOptions options;
  bool checkpoint = false;
  bool profile = false;
};

/// One complete build: the trust graph, the churn model, the simulator
/// and the started service. Members are destroyed in reverse order, so
/// the service goes before the simulator it references.
struct Built {
  graph::Graph trust;
  std::optional<churn::ExponentialChurn> model;
  std::unique_ptr<sim::ShardedSimulator> sim;
  std::unique_ptr<overlay::ShardedOverlayService> service;
};

std::unique_ptr<sim::ShardedSimulator> make_sim(const ServiceSpec& spec) {
  sim::ShardedSimulator::Options so;
  so.shards = spec.shards;
  so.num_actors = spec.nodes;
  so.lookahead = spec.options.transport.min_latency;
  so.profile = spec.profile;
  return std::make_unique<sim::ShardedSimulator>(so);
}

/// Constructs a service on `b`'s graph and model; started unless it
/// is the target of a restore.
void make_service(Built& b, const ServiceSpec& spec, std::uint64_t seed,
                  bool start) {
  b.sim = make_sim(spec);
  b.service = std::make_unique<overlay::ShardedOverlayService>(
      *b.sim, b.trust, *b.model, spec.options, seed);
  if (spec.checkpoint) b.service->enable_checkpointing();
  if (start) b.service->start();
}

std::unique_ptr<Built> build(const ServiceSpec& spec, std::uint64_t seed,
                             SpanRecorder& spans) {
  const Span setup(spans, "setup");
  auto b = std::make_unique<Built>();
  {
    const Span s(spans, "graph.gen");
    Rng graph_rng(seed ^ 0x6EA4);  // scale_single_run's graph stream
    b->trust = graph::holme_kim(spec.nodes, 5, 0.3, graph_rng);
  }
  b->model = churn::ExponentialChurn::from_availability(spec.alpha, 30.0);
  {
    const Span s(spans, "overlay.build");
    make_service(*b, spec, seed, true);
  }
  return b;
}

/// Runs the one-time build kSetups times (keeping the last) and
/// records each build's wall time.
std::unique_ptr<Built> timed_builds(const ServiceSpec& spec,
                                    const Options& opt, SpanRecorder& spans,
                                    Result& r) {
  std::unique_ptr<Built> built;
  for (std::size_t i = 0; i < kSetups; ++i) {
    built.reset();  // free the previous build before timing the next
    const double t0 = now_seconds();
    built = build(spec, opt.seed, spans);
    r.setup_seconds.push_back(now_seconds() - t0);
  }
  return built;
}

/// Per-slice measurement: the overlay's streaming disconnected
/// fraction over its current edge set.
double measure(overlay::ShardedOverlayService& service,
               metrics::StreamingConnectivity& conn, SpanRecorder& spans) {
  const Span s(spans, "metrics.measure");
  const auto edges = service.overlay_edges();
  return conn.fraction_disconnected(service.num_nodes(), edges,
                                    service.online_mask());
}

std::uint64_t fingerprint(overlay::ShardedOverlayService& service) {
  const auto health = service.protocol_health();
  return telemetry::trajectory_fingerprint(service.overlay_edges(), health);
}

/// Post-run outputs and checks shared by both sharded workloads.
/// `streaming_frac` is the last slice's measurement (at the horizon).
void finish_sharded(Result& r, Built& b, double streaming_frac) {
  auto& service = *b.service;
  const auto health = service.protocol_health();
  r.messages_sent = health.messages_sent;
  double sum = 0.0;
  for (const double f : r.disconnected_series) sum += f;
  r.disconnected_frac =
      sum / static_cast<double>(std::max<std::size_t>(
                1, r.disconnected_series.size()));
  r.exchange_fail_frac = 1.0 - health.honest_completion_rate();
  r.output_fingerprint = fingerprint(service);
  r.checks.push_back(check_health(health));
  r.checks.push_back(check_disconnected_recompute(
      streaming_frac, graph::fraction_disconnected(service.overlay_snapshot(),
                                                   service.online_mask())));

  add_health_layers(r, health);
  add_shard_layers(r, b.sim->shard_stats());
  r.layer["sim.events"] = static_cast<double>(b.sim->events_executed());
  r.layer["overlay.replacements"] =
      static_cast<double>(service.total_replacements().replacements());
  r.layer["overlay.node_state_mb"] =
      static_cast<double>(service.node_state_bytes()) / kMiB;
  r.layer["graph.trust_mb"] = graph_bytes(b.trust) / kMiB;
  r.layer["fault.faulted"] =
      service.fault_transport() != nullptr
          ? static_cast<double>(
                service.fault_transport()->counters().total_faulted())
          : 0.0;
  r.layer["inference.observations"] =
      service.observer() != nullptr
          ? static_cast<double>(service.observer()->records_recorded())
          : 0.0;
}

/// Slice loop shared by both sharded workloads: runs the simulator to
/// the slice's end, measures connectivity when asked, runs `extra`
/// (snapshots) and times the whole slice.
struct SliceDriver {
  Result& r;
  SpanRecorder& spans;
  metrics::StreamingConnectivity conn;
  double frac = 0.0;

  template <typename Extra>
  void slice(Built& b, double end, bool measured, Extra&& extra) {
    const double t0 = now_seconds();
    {
      const Span s(spans, "slice");
      {
        const Span run(spans, "sim.run");
        b.sim->run_until(end);
      }
      if (measured) {
        frac = measure(*b.service, conn, spans);
        r.disconnected_series.push_back(frac);
      }
      extra();
    }
    r.slice_seconds.push_back(now_seconds() - t0);
    ++r.attempted;
  }
};

/// scale_single_run's construction: cache 50, shuffle 10, target 20,
/// lifetime 90, alpha 0.5 on a holme_kim(nodes, 5, 0.3) trust graph.
ServiceSpec crawl_spec(std::size_t nodes, std::size_t shards, bool profile) {
  ServiceSpec spec;
  spec.nodes = nodes;
  spec.shards = shards;
  spec.options.params.cache_size = 50;
  spec.options.params.shuffle_length = 10;
  spec.options.params.target_links = 20;
  spec.options.params.pseudonym_lifetime = 90.0;
  spec.profile = profile;
  return spec;
}

Result run_crawl(const Options& opt) {
  Result r;
  SpanRecorder spans(opt.trace, opt.seed);
  const ServiceSpec spec =
      crawl_spec(opt.toy ? 3000 : 100'000, opt.shards != 0 ? opt.shards : 4,
                 opt.trace);
  const double horizon = opt.toy ? 5.0 : kCrawlPeriodsPerSecond * opt.seconds;

  auto built = timed_builds(spec, opt, spans, r);
  r.input_fingerprint = ckpt::fingerprint_graph(built->trust);

  SliceDriver driver{r, spans, {}, 0.0};
  const double cpu0 = cpu_seconds();
  const double t0 = now_seconds();
  {
    const Span phase(spans, "measure");
    // Whole measurement intervals, so the last slice measures the
    // horizon.
    const std::size_t n =
        std::max<std::size_t>(
            1, slice_count(horizon, kCrawlSlice * kCrawlMeasureEvery)) *
        kCrawlMeasureEvery;
    for (std::size_t i = 0; i < n; ++i)
      driver.slice(*built, static_cast<double>(i + 1) * kCrawlSlice,
                   (i + 1) % kCrawlMeasureEvery == 0, [] {});
  }
  r.wall_s = now_seconds() - t0;
  r.cpu_s = cpu_seconds() - cpu0;
  r.peak_rss_mb = peak_rss_mb();

  finish_sharded(r, *built, driver.frac);
  finish_spans(r, spans, opt);
  return r;
}

/// Workload identity for the snapshot header (graph size, seed and
/// slicing grid — what a resume must match).
std::uint64_t hostile_config_hash(const ServiceSpec& spec, std::uint64_t seed) {
  ckpt::Writer w;
  w.str("perfbench.hostile_service");
  w.u64(spec.nodes);
  w.u64(seed);
  w.f64(spec.alpha);
  w.f64(kHostileSlice);
  return ckpt::fnv1a(w.buffer());
}

/// Uninstalls the live registry on every exit path.
struct LiveRegistry {
  obs::MetricsRegistry registry;
  LiveRegistry() { obs::install_live_metrics(&registry); }
  ~LiveRegistry() { obs::uninstall_live_metrics(); }
  LiveRegistry(const LiveRegistry&) = delete;
  LiveRegistry& operator=(const LiveRegistry&) = delete;
};

Result run_hostile(const Options& opt) {
  Result r;
  SpanRecorder spans(opt.trace, opt.seed);
  ServiceSpec spec;
  spec.nodes = opt.toy ? 1500 : 20'000;
  spec.shards = opt.shards != 0 ? opt.shards : 1;
  spec.checkpoint = true;
  spec.profile = opt.trace;
  auto& params = spec.options.params;
  params.cache_size = 50;
  params.shuffle_length = 10;
  params.target_links = 20;
  params.pseudonym_lifetime = 90.0;
  // service_mode's arms for --loss 0.05 --adversary 0.1 --attack mixed
  // --defended --observer 0.3, plus the adversary study's timeout and
  // retry defaults.
  const experiments::AdversarySpec defaults;
  params.validate_received = true;
  params.peer_rate_limit = defaults.peer_rate_limit;
  params.peer_rate_window = defaults.peer_rate_window;
  params.sampler_min_dwell = defaults.sampler_min_dwell;
  params.shuffle_timeout = defaults.shuffle_timeout;
  params.shuffle_max_retries = defaults.max_retries;
  fault::FaultPlan faults;
  faults.drop_probability = 0.05;
  faults.per_link_streams = true;
  spec.options.link_faults = faults;
  spec.options.adversary =
      experiments::make_attack_plan("mixed", 0.1, opt.seed);
  inference::ObserverPlan observer;
  observer.coverage = 0.3;
  observer.seed = opt.seed ^ 0x0B5E;
  spec.options.observer = observer;

  // The horizon is a whole number of snapshot intervals plus the tail
  // the resumed service replays.
  const std::size_t snapshot_every = opt.toy ? 4 : kHostileSnapshotEvery;
  const std::size_t intervals =
      opt.toy ? 1
              : std::max<std::size_t>(
                    1, slice_count(kHostilePeriodsPerSecond * opt.seconds,
                                   kHostileSlice * kHostileSnapshotEvery));
  const std::size_t n = intervals * snapshot_every + kHostileResumeTail;

  const LiveRegistry live;
  auto built = timed_builds(spec, opt, spans, r);
  ckpt::Writer inputs;
  inputs.u64(ckpt::fingerprint_graph(built->trust));
  if (const auto* engine = built->service->adversary_engine())
    for (graph::NodeId v = 0; v < spec.nodes; ++v)
      inputs.u64(static_cast<std::uint64_t>(engine->role_of(v)));
  r.input_fingerprint = ckpt::fnv1a(inputs.buffer());

  std::filesystem::create_directories(opt.work_dir);
  const std::uint64_t graph_fp = ckpt::fingerprint_graph(built->trust);
  const std::uint64_t cfg_hash = hostile_config_hash(spec, opt.seed);
  std::string last_path;
  std::size_t last_slice = 0;
  double snapshot_bytes = 0.0;
  std::size_t snapshots = 0;

  SliceDriver driver{r, spans, {}, 0.0};
  Built resumed;  // declared here so its teardown is not timed
  resumed.trust = built->trust;
  resumed.model = built->model;
  std::uint64_t resumed_fp = 0;
  const double cpu0 = cpu_seconds();
  const double t0 = now_seconds();
  {
    const Span phase(spans, "measure");
    for (std::size_t i = 0; i < n; ++i) {
      const double end = static_cast<double>(i + 1) * kHostileSlice;
      driver.slice(*built, end, true, [&] {
        built->service->prune_checkpoint_journal();
        if ((i + 1) % snapshot_every != 0 || i + 1 > n - kHostileResumeTail)
          return;
        const std::string path = ckpt::checkpoint_path(opt.work_dir, i + 1);
        {
          const Span s(spans, "ckpt.save");
          ckpt::Writer w;
          built->service->save_checkpoint(w);
          ckpt::Header h;
          h.backend = ckpt::BackendKind::kSharded;
          h.shards_hint = static_cast<std::uint32_t>(spec.shards);
          h.graph_fingerprint = graph_fp;
          h.config_hash = cfg_hash;
          h.seed = opt.seed;
          h.sim_time = end;
          std::string error;
          if (!ckpt::save_file(path, h, w.buffer(), &error))
            throw std::runtime_error("snapshot write failed: " + error);
          snapshot_bytes += static_cast<double>(w.buffer().size());
        }
        ++snapshots;
        if (!last_path.empty()) std::filesystem::remove(last_path);
        last_path = path;
        last_slice = i + 1;
      });
    }

    // Resume the last snapshot into a fresh service and replay the
    // tail: it must land on the live service's horizon fingerprint.
    {
      const Span s(spans, "ckpt.load");
      ckpt::LoadResult lr = ckpt::load_file(last_path);
      ckpt::Status st = lr.status;
      if (st == ckpt::Status::kOk)
        st = ckpt::check_compat(lr.header, ckpt::BackendKind::kSharded,
                                graph_fp, cfg_hash);
      if (st != ckpt::Status::kOk)
        throw std::runtime_error(std::string("snapshot rejected: ") +
                                 ckpt::status_name(st) + " " + lr.message);
      make_service(resumed, spec, opt.seed, false);
      ckpt::Reader reader(lr.payload);
      resumed.service->restore_from_checkpoint(reader);
    }
    {
      const Span s(spans, "ckpt.replay");
      for (std::size_t i = last_slice; i < n; ++i) {
        resumed.sim->run_until(static_cast<double>(i + 1) * kHostileSlice);
        resumed.service->prune_checkpoint_journal();
      }
    }
    resumed_fp = fingerprint(*resumed.service);
  }
  r.wall_s = now_seconds() - t0;
  r.cpu_s = cpu_seconds() - cpu0;
  r.peak_rss_mb = peak_rss_mb();
  std::filesystem::remove(last_path);

  finish_sharded(r, *built, driver.frac);
  r.checks.push_back(
      check_resume_fingerprint(r.output_fingerprint, resumed_fp));
  r.layer["ckpt.mb"] =
      ratio(snapshot_bytes, static_cast<double>(snapshots)) / kMiB;
  finish_spans(r, spans, opt);
  return r;
}

// --- fig3_paper ------------------------------------------------------

Result run_fig3(const Options& opt) {
  Result r;
  SpanRecorder spans(opt.trace, opt.seed);
  experiments::WorkbenchOptions wo;
  wo.seed = kFig3GraphSeed;
  wo.social.num_nodes = 50'000;
  wo.trust_nodes = 1000;
  if (opt.toy) {
    wo.social.num_nodes = 4000;
    wo.social.community_size = 500;
    wo.social.sub_community_size = 50;
    // At 200 trust nodes about 25 are online at alpha 0.125, and the
    // overlay can read above its trust graph even at steady state.
    wo.trust_nodes = 500;
  }

  std::unique_ptr<experiments::Workbench> bench;
  for (std::size_t i = 0; i < kSetups; ++i) {
    bench.reset();
    const double t0 = now_seconds();
    {
      const Span setup(spans, "setup");
      const Span s(spans, "graph.gen");
      bench = std::make_unique<experiments::Workbench>(wo);
      bench->base_graph();
      // Same order as availability_sweep, so the cached graphs are the
      // ones the sweep would sample itself.
      bench->trust_graph(1.0);
      bench->trust_graph(0.5);
    }
    r.setup_seconds.push_back(now_seconds() - t0);
  }
  experiments::FigureScale scale;
  scale.alphas = kFig3Alphas;
  // availability_sweep seeds cell i with seed ^ (101 + i), so sweep
  // seeds that differ only in their low bits share low-alpha cells
  // (seeds 2k and 2k + 1 share all eight). One SplitMix64 step keeps
  // the cells of different workload seeds apart.
  std::uint64_t seed_state = opt.seed;
  scale.seed = splitmix64(seed_state);
  // The inputs generated outside the sweep are the fixed graphs; what
  // the seed draws (churn, protocol draws, the ER reference) is drawn
  // inside availability_sweep and shows only in the outputs.
  ckpt::Writer inputs;
  inputs.u64(ckpt::fingerprint_graph(bench->base_graph()));
  inputs.u64(ckpt::fingerprint_graph(bench->trust_graph(1.0)));
  inputs.u64(ckpt::fingerprint_graph(bench->trust_graph(0.5)));
  r.input_fingerprint = ckpt::fnv1a(inputs.buffer());
  scale.jobs = 2;
  scale.window.warmup =
      std::max(kFig3MinWarmup,
               kFig3PeriodsPerSecond * opt.seconds - scale.window.measure);

  const double cpu0 = cpu_seconds();
  const double t0 = now_seconds();
  experiments::SweepFigure fig;
  {
    const Span phase(spans, "measure");
    const Span s(spans, "experiments.sweep");
    fig = experiments::availability_sweep(*bench, scale);
  }
  r.wall_s = now_seconds() - t0;
  r.cpu_s = cpu_seconds() - cpu0;
  r.peak_rss_mb = peak_rss_mb();

  // Series order: trust-f1.0, trust-f0.5, overlay-f1.0, overlay-f0.5,
  // random (experiments/figures.cpp).
  const auto& conn = fig.connectivity;
  metrics::ProtocolHealth overlay_health = fig.health[2];
  overlay_health.merge(fig.health[3]);
  r.messages_sent = overlay_health.messages_sent;
  double sum = 0.0;
  for (const double v : conn[2].values) sum += v;
  for (const double v : conn[3].values) sum += v;
  r.disconnected_frac =
      sum / static_cast<double>(conn[2].values.size() + conn[3].values.size());
  r.exchange_fail_frac = 1.0 - overlay_health.honest_completion_rate();
  // A slice of the figure is one alpha point: the wall time of the
  // cells that compute it (cell i computes alphas[i]).
  std::map<double, double> point_seconds;
  for (std::size_t i = 0; i < fig.alphas.size(); ++i)
    point_seconds[fig.alphas[i]] += fig.telemetry.cell_seconds[i];
  for (const auto& [alpha, seconds] : point_seconds)
    r.slice_seconds.push_back(seconds);

  const CheckResult f10 = check_overlay_not_above_trust(
      "f1.0", fig.alphas, conn[0].values, conn[2].values);
  const CheckResult f05 = check_overlay_not_above_trust(
      "f0.5", fig.alphas, conn[1].values, conn[3].values);
  r.checks = {check_health(fig.health[2]), check_health(fig.health[3]), f10,
              f05};
  r.attempted = fig.telemetry.cells;

  ckpt::Writer out;
  for (const auto* family : {&fig.connectivity, &fig.napl})
    for (const auto& series : *family)
      for (const double v : series.values) out.f64(v);
  for (const auto& h : fig.health) {
    out.u64(h.requests_sent);
    out.u64(h.responses_sent);
    out.u64(h.exchanges_completed);
    out.u64(h.messages_sent);
    out.u64(h.messages_delivered);
  }
  r.output_fingerprint = ckpt::fnv1a(out.buffer());

  add_health_layers(r, overlay_health);
  const auto& tel = fig.telemetry;
  double cell_sum = 0.0, cell_max = 0.0;
  for (const double c : tel.cell_seconds) {
    cell_sum += c;
    cell_max = std::max(cell_max, c);
  }
  r.layer["runner.cell_p50_s"] = percentile(tel.cell_seconds, 0.5);
  r.layer["runner.cell_max_s"] = cell_max;
  r.layer["runner.idle_frac"] =
      1.0 - ratio(cell_sum, static_cast<double>(tel.jobs) * tel.wall_seconds);
  r.layer["experiments.sizing_s"] = r.wall_s - tel.wall_seconds;
  r.layer["graph.trust_mb"] = (graph_bytes(bench->trust_graph(1.0)) +
                               graph_bytes(bench->trust_graph(0.5))) /
                              kMiB;
  finish_spans(r, spans, opt);
  return r;
}

}  // namespace

SingleRun crawl_single_run(std::uint64_t seed, std::size_t nodes,
                           double horizon, std::size_t shards) {
  SpanRecorder off(false, seed);
  const auto b = build(crawl_spec(nodes, shards, false), seed, off);
  b->sim->run_until(horizon);
  return {b->sim->events_executed(), fingerprint(*b->service)};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig3_paper", "crawl_k4",
                                                 "hostile_service"};
  return names;
}

Result run_workload(const Options& options) {
  Result r;
  if (options.workload == "fig3_paper")
    r = run_fig3(options);
  else if (options.workload == "crawl_k4")
    r = run_crawl(options);
  else if (options.workload == "hostile_service")
    r = run_hostile(options);
  else
    throw std::invalid_argument("unknown workload: " + options.workload);
  r.workload = options.workload;
  // A failed end-of-run check invalidates every operation of the run.
  if (!r.all_checks_ok()) r.failed = r.attempted;
  return r;
}

}  // namespace perfbench
