// One function per evaluation figure of the paper (Figures 3-9).
// Benches print the returned data; tests run them at reduced scale
// and assert the paper's qualitative shapes.
//
// Every sweep fans its independent work out on the ppo_runner pool:
// the alpha sweeps (Figures 3, 4, 7) one task per simulation run,
// heaviest first, the other sweeps one task per cell (alpha / f /
// lifetime ratio). Seeds depend only on (FigureScale::seed, cell
// index), so results are bit-identical for any `jobs` value — see
// runner/sweep.hpp for the contract.
#pragma once

#include <vector>

#include "common/table.hpp"
#include "experiments/scenario.hpp"
#include "experiments/workbench.hpp"
#include "runner/sweep.hpp"

namespace ppo::experiments {

/// Scale knobs shared by the figure functions; defaults reproduce the
/// paper's setup, benches/tests may shrink them.
struct FigureScale {
  MeasureWindow window;
  std::vector<double> alphas = {0.125, 0.25, 0.375, 0.5,
                                0.625, 0.75, 0.875, 1.0};
  std::uint64_t seed = 1;
  /// Worker threads for the sweeps; 0 = hardware concurrency.
  std::size_t jobs = 0;
  /// Report per-task completion/ETA lines to stderr (a task is one
  /// run in the alpha sweeps, one cell elsewhere).
  bool progress = false;
  /// Shard count K >= 1 for every overlay run inside a cell (see
  /// OverlayScenario::shards; figures are bit-identical for every K).
  std::size_t shards = 1;
  /// Independent repetitions per sweep cell (distinct seeds). With
  /// R > 1 the sweep figures report the mean over replicas plus a 95%
  /// confidence half-width per point; R = 1 reproduces the historical
  /// single-run values bit-identically. Applies to the alpha sweeps
  /// (Figures 3/4/7 and the fault-tolerance sweep).
  std::size_t replicas = 1;
  /// Warm-start cache directory for every overlay cell (DESIGN.md
  /// §13): the first sweep populates per-cell warmup snapshots, later
  /// sweeps fork from them — bit-identical figures, warmup wall time
  /// paid once. Empty = off.
  std::string warm_start_dir;
};

/// Availability sweeps (Figures 3, 4, 7): one named series per curve,
/// on the shared alpha axis.
struct SweepFigure {
  std::vector<double> alphas;
  std::vector<Series> connectivity;  // fraction of disconnected nodes
  std::vector<Series> napl;          // normalized average path length
  /// 95% confidence half-widths per point, indexed like the value
  /// series. All-zero when `replicas` is 1.
  std::vector<Series> connectivity_ci;
  std::vector<Series> napl_ci;
  /// Degradation rollup per series, summed over all alpha cells and
  /// replicas (indexed like `connectivity`; static baselines stay
  /// zero). Counter magnitudes scale with `replicas`.
  std::vector<metrics::ProtocolHealth> health;
  std::size_t replicas = 1;          // repetitions behind each point
  /// Wall-clock accounting: `cells` = alphas x replicas, each cell's
  /// seconds the sum of its runs' (the ER sizing run is charged to no
  /// cell), `wall_seconds` the whole sweep, sizing run included.
  runner::SweepTelemetry telemetry;
};

/// Figures 3 + 4: trust graphs (f = 1.0, 0.5), the overlay on both,
/// and the Erdős–Rényi reference sized to the overlay.
SweepFigure availability_sweep(Workbench& bench, const FigureScale& scale);

/// Figure 7: overlay at lifetime ratios r in {1, 3, 9, inf} (f = 0.5)
/// plus trust-graph and random-graph baselines.
SweepFigure lifetime_sweep(Workbench& bench, const FigureScale& scale);

/// Figure 5: degree distributions at alpha = 0.5.
struct DegreeFigure {
  struct PerF {
    double f;
    Histogram trust;
    Histogram overlay;
    Histogram random;
    metrics::ProtocolHealth health;  // of the overlay run
  };
  std::vector<PerF> entries;
  runner::SweepTelemetry telemetry;
};
DegreeFigure degree_distributions(Workbench& bench, const FigureScale& scale,
                                  const std::vector<double>& fs = {1.0, 0.5});

/// Figure 6: per-node messages/period and max out-degree, nodes
/// ranked by trust-graph degree (descending), alpha = 0.5.
struct MessageFigure {
  struct Row {
    std::size_t rank = 0;  // 1-based, by descending trust degree
    std::size_t trust_degree = 0;
    std::size_t max_out_degree = 0;
    double messages_per_period = 0.0;
  };
  struct PerF {
    double f;
    std::vector<Row> rows;          // every node, rank order
    double mean_messages = 0.0;     // network-wide average (paper: ~2)
    metrics::ProtocolHealth health;
  };
  std::vector<PerF> entries;
  runner::SweepTelemetry telemetry;
};
MessageFigure message_overhead(Workbench& bench, const FigureScale& scale,
                               const std::vector<double>& fs = {1.0, 0.5});

/// Figure 8: connectivity over time at alpha = 0.25 (f = 0.5). The
/// three traces are independent runs and execute in parallel when
/// `jobs` allows (0 = hardware concurrency).
struct ConvergenceFigure {
  metrics::TimeSeries trust{"trust-graph"};
  metrics::TimeSeries overlay_r3{"overlay-r3"};
  metrics::TimeSeries overlay_r9{"overlay-r9"};
  metrics::ProtocolHealth health_r3;
  metrics::ProtocolHealth health_r9;
  runner::SweepTelemetry telemetry;
};
ConvergenceFigure convergence_trace(Workbench& bench, double horizon,
                                    double sample_every, std::uint64_t seed,
                                    std::size_t jobs = 0);

/// Figure 9: pseudonym links replaced per node per shuffling period
/// over time at alpha = 0.25 (f = 0.5), r in {3, 9, inf}.
struct ReplacementFigure {
  metrics::TimeSeries r3{"r3"};
  metrics::TimeSeries r9{"r9"};
  metrics::TimeSeries r_infinite{"r-infinite"};
  metrics::ProtocolHealth health_r3;
  metrics::ProtocolHealth health_r9;
  metrics::ProtocolHealth health_r_infinite;
  runner::SweepTelemetry telemetry;
};
ReplacementFigure replacement_trace(Workbench& bench, double horizon,
                                    double sample_every, std::uint64_t seed,
                                    std::size_t jobs = 0);

/// Fault-tolerance sweep (robustness extension, not in the paper):
/// the overlay at f = 0.5 under injected per-message loss, with and
/// without the shuffle retry machinery (timeout / bounded retransmit /
/// exponential backoff), swept over availability alpha.
struct FaultToleranceSpec {
  /// Loss rates to inject; each contributes a retry and a no-retry
  /// series on top of the shared lossless baseline.
  std::vector<double> loss_rates = {0.1, 0.2, 0.3, 0.5};
  /// Both lossy variants run with this timeout (in periods); the
  /// no-retry variant aborts on the first timeout.
  double shuffle_timeout = 0.25;
  std::size_t max_retries = 2;
  double retry_backoff = 2.0;
};

struct FaultFigure {
  std::vector<double> alphas;
  std::vector<Series> connectivity;  // fraction of disconnected nodes
  std::vector<Series> napl;          // normalized average path length
  std::vector<Series> completion;    // exchange completion rate
  /// 95% confidence half-widths (all-zero when `replicas` is 1).
  std::vector<Series> connectivity_ci;
  std::vector<Series> napl_ci;
  std::vector<Series> completion_ci;
  /// Degradation rollup per series, summed over all alpha cells and
  /// replicas (indexed like `connectivity`).
  std::vector<metrics::ProtocolHealth> health;
  std::size_t replicas = 1;
  runner::SweepTelemetry telemetry;
};
FaultFigure fault_tolerance_sweep(Workbench& bench, const FigureScale& scale,
                                  const FaultToleranceSpec& spec = {});

/// Lifetime used for "pseudonyms that never expire" (r = inf).
inline constexpr double kInfiniteLifetime = 1e12;

}  // namespace ppo::experiments
