// Scenario runners: a full overlay-protocol simulation under churn,
// the static baselines (trust graph alone, Erdős–Rényi reference)
// under the same churn, and time-series variants for the convergence
// and overhead figures.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "adversary/plan.hpp"
#include "churn/churn_model.hpp"
#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "fault/fault_plan.hpp"
#include "graph/graph.hpp"
#include "inference/observer.hpp"
#include "metrics/overlay_metrics.hpp"
#include "metrics/protocol_health.hpp"
#include "metrics/timeseries.hpp"
#include "overlay/params.hpp"

namespace ppo::experiments {

/// Churn configuration shared by all runners. The paper fixes
/// Toff = 30 shuffling periods and varies Ton to hit alpha (§IV-D).
struct ChurnSpec {
  double alpha = 0.5;
  double mean_offline = 30.0;
  bool pareto = false;        // churn-model ablation
  double pareto_shape = 3.0;

  std::unique_ptr<churn::ChurnModel> make() const;
};

/// Common timing for steady-state measurements.
struct MeasureWindow {
  double warmup = 300.0;       // periods before the first sample; the
                               // overlay stabilizes after ~200 (Fig. 8)
  double measure = 50.0;       // length of the measurement window
  double sample_every = 10.0;  // snapshot cadence inside the window
  std::size_t apl_sources = 48;
};

struct OverlayScenario {
  overlay::OverlayParams params;  // Table I defaults
  ChurnSpec churn;
  MeasureWindow window;
  std::uint64_t seed = 1;

  /// Fault-injection extension: per-message/link adversities applied
  /// to the transport (absent or inert = bit-identical to a fault-free
  /// run), node-crash bursts from the same plan, and pseudonym-service
  /// blackout windows.
  std::optional<fault::FaultPlan> faults;
  fault::ServiceFaults service_faults;

  /// Byzantine-adversary extension (§III-E): seeded attacker roles
  /// driven through the overlay service. Absent or zero-fraction =
  /// bit-identical to an adversary-free run.
  std::optional<adversary::AdversaryPlan> adversary;

  /// Link-privacy extension (§III): a passive observer recording
  /// shuffle traffic at the send seams. Read-only — never perturbs
  /// the trajectory; absent or zero-coverage = bit-identical to no
  /// observer.
  std::optional<inference::ObserverPlan> observer;

  /// Shard count K >= 1 of the sharded simulation core the overlay
  /// runs on (K threads). Trajectories are bit-identical for every K;
  /// K = 1 runs serially on the calling thread.
  std::size_t shards = 1;

  /// Warm-start forking (DESIGN.md §13): when set, run_overlay caches
  /// the post-warmup simulator state in this directory as a checkpoint
  /// keyed by the cell's full identity (graph fingerprint, seed,
  /// churn, params, fault/adversary/observer plans, warmup length; not
  /// the shard count — snapshots restore at any K). A rerun of the same cell restores the snapshot instead
  /// of re-simulating the warmup — bit-identical to the cold run, as
  /// the checkpoint tests pin down. Ignored (silent cold run) for
  /// scheduled service faults and node-crash bursts, whose inputs the
  /// cell hash does not cover.
  std::string warm_start_dir;
};

/// Aggregates of snapshot metrics over the measurement window.
struct SnapshotStats {
  RunningStats frac_disconnected;
  RunningStats norm_apl;
  RunningStats online_fraction;
  RunningStats online_edges;
  RunningStats total_edges;  // snapshot edges including offline nodes
};

struct OverlayRunResult {
  SnapshotStats stats;
  /// Degree distribution over online nodes at the final sample.
  Histogram final_degree;
  std::size_t final_total_edges = 0;

  /// Per-node accounting for Figure 6.
  struct PerNode {
    std::size_t trust_degree = 0;
    std::size_t max_out_degree = 0;
    double messages_per_online_period = 0.0;
  };
  std::vector<PerNode> per_node;

  /// Final protocol-wide replacement counters.
  std::uint64_t replacements = 0;
  std::uint64_t messages_total = 0;

  /// Protocol + transport degradation rollup (see ProtocolHealth).
  metrics::ProtocolHealth health;

  /// Merged observation log (empty unless scenario.observer enabled).
  std::vector<inference::ObservationRecord> observations;

  /// Warm-start accounting: whether the warmup phase was restored
  /// from a cached snapshot, and the wall seconds the warmup phase
  /// cost (simulation when cold, load + restore when warm).
  bool warm_started = false;
  double warmup_wall_seconds = 0.0;
};

/// Runs the overlay-maintenance protocol on `trust` under churn and
/// measures the resulting overlay.
OverlayRunResult run_overlay(const graph::Graph& trust,
                             const OverlayScenario& scenario);

/// What the zero-plan cross-checks (an adversary or observer arm that
/// must not perturb the run) compare: summary stats, message and
/// replacement totals, final edge count and every health field.
bool runs_identical(const OverlayRunResult& a, const OverlayRunResult& b);

/// Process-wide warm-start accounting, summed over every
/// warm-start-armed run_overlay call since the last reset (sweep
/// cells included — updates are atomic, reads are consistent only at
/// a sweep barrier). The figure benches put this in the --json report
/// envelope so tools/bench_diff's history ledger can track warm-start
/// speedup per commit.
struct WarmStartStats {
  std::uint64_t warm_runs = 0;  // runs forked from a cached snapshot
  std::uint64_t cold_runs = 0;  // armed runs that simulated the warmup
  double warm_seconds = 0.0;    // wall spent loading + restoring
  double cold_seconds = 0.0;    // wall spent simulating warmups cold
};
WarmStartStats warm_start_stats();
void reset_warm_start_stats();

/// Measures a FIXED graph (trust-only baseline or ER reference) under
/// the same churn process — no protocol, just availability masking.
struct StaticRunResult {
  SnapshotStats stats;
  Histogram final_degree;
};
StaticRunResult run_static(const graph::Graph& g, const ChurnSpec& churn,
                           const MeasureWindow& window, std::uint64_t seed);

/// Time-series runners for Figures 8 and 9.
struct OverlayTraceSpec {
  double horizon = 1000.0;
  double sample_every = 10.0;
  std::size_t apl_sources = 32;
  bool track_connectivity = true;
  bool track_replacements = false;
};
struct OverlayTrace {
  metrics::TimeSeries connectivity{"connectivity"};
  /// Links replaced per ONLINE node per shuffling period within each
  /// sampling interval (expiry refills + better-pseudonym swaps).
  metrics::TimeSeries replacements{"replacements"};
  /// Protocol + transport degradation rollup at the horizon.
  metrics::ProtocolHealth health;
};
OverlayTrace run_overlay_trace(const graph::Graph& trust,
                               OverlayScenario scenario,
                               const OverlayTraceSpec& spec);

/// Connectivity-over-time of a static graph under churn (trust-graph
/// line of Figure 8).
metrics::TimeSeries run_static_trace(const graph::Graph& g,
                                     const ChurnSpec& churn, double horizon,
                                     double sample_every, std::uint64_t seed);

/// Erdős–Rényi reference with the same node count and a given edge
/// budget (matched to the overlay's measured size).
graph::Graph er_reference(std::size_t nodes, std::size_t edges,
                          std::uint64_t seed);

}  // namespace ppo::experiments
