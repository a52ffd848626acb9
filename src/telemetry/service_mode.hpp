// Long-running service mode: one sustained overlay workload (churn
// plus optional link faults, Byzantine adversary and passive observer
// arms) driven in fixed sim-time slices, with the live telemetry
// plane attached — a /metrics HTTP endpoint, a wall-clock sampling
// ticker exporting JSONL time-series, and slice-boundary gauge
// refreshes (events/sec/core, shard busy/stall ratios, overlay and
// health state).
//
// Determinism contract: telemetry is read-only and wall-clock-side.
// The driver slices run_until at the same sim times whether telemetry
// is on or off, every instrumentation site only *reads* simulation
// state, and the HTTP/ticker threads only read registry snapshots —
// so a fixed-horizon run produces a bit-identical trajectory
// fingerprint with --telemetry-port / --telemetry-out on or off, for
// every shard count. A wall limit legitimately changes how far a run
// gets (not the trajectory prefix); fingerprint comparisons therefore
// use fixed-horizon mode.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "metrics/protocol_health.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::telemetry {

/// FNV-1a over the overlay's canonical edge list (normalized u < v,
/// sorted, deduplicated — exactly what overlay_edges() yields) plus
/// the protocol-health counters: equal fingerprints mean equal
/// overlay trajectories for all practical purposes. Shared by
/// scale_single_run and the service-mode determinism tests so both
/// speak the same fingerprint language.
std::uint64_t trajectory_fingerprint(
    std::span<const std::pair<graph::NodeId, graph::NodeId>> edges,
    const metrics::ProtocolHealth& health);

struct ServiceModeOptions {
  // --- workload ---
  std::size_t nodes = 5000;
  double alpha = 0.5;
  std::uint64_t seed = 42;
  /// Shard count K >= 1 (K threads); the trajectory is bit-identical
  /// for every K, and K = 1 runs serially on the calling thread.
  std::size_t shards = 4;
  /// Stop after this much sim time (periods). 0 = unbounded; the run
  /// then needs a wall limit.
  double horizon = 0.0;
  /// Stop once this much wall time has elapsed (checked at slice
  /// boundaries, so the run overshoots by at most one slice). 0 =
  /// unbounded; the run then needs a horizon.
  double wall_limit_seconds = 0.0;
  /// Sim-time slice per driver step: gauges refresh and stop
  /// conditions are checked every `slice` periods.
  double slice = 1.0;

  // --- optional arms ---
  /// Per-message drop probability; above 0 it also arms the shuffle
  /// timeout (0.25 periods) and one retry, the adversary study's.
  double loss = 0.0;
  double adversary_fraction = 0.0;       // attacker fraction of nodes
  std::string adversary_attack = "mixed";  // pollute/eclipse/drop/replay/mixed
  bool defended = false;                 // arm the §III-E defenses
  double observer_coverage = 0.0;        // passive-observer coverage

  // --- overlay parameters (scale-bench-reduced defaults) ---
  std::size_t cache_size = 50;
  std::size_t shuffle_length = 10;
  std::size_t target_links = 20;
  double pseudonym_lifetime = 90.0;
  /// Per-shard wall-clock load profile (busy/stall); feeds the
  /// shard_busy_ratio / shard_stall_ratio gauges.
  bool profile = false;

  // --- telemetry plane ---
  /// HTTP exposition port: -1 = no server, 0 = ephemeral (read the
  /// bound port from the report), >0 = fixed.
  int port = -1;
  /// JSONL time-series sink; empty = none.
  std::string telemetry_out;
  double sample_interval_seconds = 1.0;
  std::size_t ring_capacity = 600;

  // --- checkpoint/restore (DESIGN.md §13) ---
  /// Snapshot the full simulator state every this many sim-time
  /// periods (rounded up to the next slice boundary). 0 = no periodic
  /// checkpoints; a checkpoint_dir alone still arms exit snapshots.
  double checkpoint_every = 0.0;
  /// Directory for ckpt-*.ppoc files; empty = checkpointing off.
  std::string checkpoint_dir;
  /// Resume from the newest valid checkpoint in checkpoint_dir (falls
  /// back to older files when the newest is corrupt; cold-starts when
  /// none survive validation). The resumed trajectory is bit-identical
  /// to an uninterrupted run.
  bool resume = false;
  /// Install SIGINT/SIGTERM handlers: on signal, finish the current
  /// slice, write a final snapshot (when checkpointing is armed),
  /// flush the telemetry ring tail, and return cleanly.
  bool handle_signals = false;
};

struct ServiceModeReport {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  double sim_time = 0.0;
  double wall_seconds = 0.0;
  /// True when the run ended by reaching --horizon (vs the wall
  /// limit). Always true for fixed-horizon determinism runs.
  bool horizon_reached = false;
  std::size_t online = 0;
  std::size_t overlay_edges = 0;
  /// Figure 3 point at the stop time: fraction of online nodes
  /// outside the overlay's largest component.
  double fraction_disconnected = 0.0;
  std::size_t peak_rss_bytes = 0;
  std::size_t node_state_bytes = 0;
  metrics::ProtocolHealth health;
  std::vector<sim::ShardedSimulator::ShardStats> shard_stats;
  /// Telemetry-plane accounting (0 when the plane is off).
  std::uint64_t samples_taken = 0;
  std::uint64_t scrapes_served = 0;
  std::uint16_t port = 0;  // bound port; 0 = no server ran
  /// Final registry state (counters, gauges, streaming quantiles) —
  /// what the last /metrics scrape would have shown.
  obs::MetricsRegistry::Snapshot metrics;
  // --- checkpoint/restore accounting ---
  std::uint64_t checkpoints_written = 0;
  /// True when the run restored from a checkpoint instead of
  /// cold-starting.
  bool resumed = false;
  /// Sim time of the restored snapshot (0 when !resumed).
  double resumed_at = 0.0;
  /// Checkpoint files rejected during resume (corrupt/incompatible),
  /// newest first — each entry is "file: status message".
  std::vector<std::string> rejected_checkpoints;
  /// True when a SIGINT/SIGTERM drain ended the run early.
  bool interrupted = false;
};

/// Runs the sustained workload. Aborts (PPO_CHECK) when neither a
/// horizon nor a wall limit bounds the run, or when slice <= 0.
ServiceModeReport run_service_mode(const ServiceModeOptions& options);

}  // namespace ppo::telemetry
