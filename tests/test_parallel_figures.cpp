// Parallel-vs-serial determinism of the figure sweeps: the same root
// seed must produce byte-identical results at --jobs 1 and --jobs 8.
// This is the acceptance gate for running the paper's evaluation
// artefacts on the ppo_runner pool.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "experiments/figure_json.hpp"
#include "experiments/figures.hpp"

namespace ppo::experiments {
namespace {

WorkbenchOptions tiny_bench() {
  WorkbenchOptions opts;
  opts.seed = 17;
  opts.social.num_nodes = 3000;
  opts.social.sub_community_size = 50;
  opts.social.community_size = 500;
  opts.trust_nodes = 150;
  return opts;
}

FigureScale tiny_scale(std::size_t jobs) {
  FigureScale scale;
  scale.window.warmup = 40.0;
  scale.window.measure = 20.0;
  scale.window.sample_every = 10.0;
  scale.window.apl_sources = 8;
  scale.alphas = {0.25, 0.75};
  scale.seed = 3;
  scale.jobs = jobs;
  return scale;
}

void expect_identical(const std::vector<Series>& a,
                      const std::vector<Series>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].name, b[j].name);
    ASSERT_EQ(a[j].values.size(), b[j].values.size());
    for (std::size_t i = 0; i < a[j].values.size(); ++i)
      EXPECT_EQ(a[j].values[i], b[j].values[i])
          << a[j].name << " diverges at alpha index " << i;
  }
}

TEST(ParallelFigures, AvailabilitySweepIsJobsInvariant) {
  Workbench serial_bench(tiny_bench());
  Workbench parallel_bench(tiny_bench());
  const auto serial = availability_sweep(serial_bench, tiny_scale(1));
  const auto parallel = availability_sweep(parallel_bench, tiny_scale(8));

  EXPECT_EQ(serial.telemetry.jobs, 1u);
  EXPECT_EQ(parallel.telemetry.jobs, 8u);
  EXPECT_EQ(serial.alphas, parallel.alphas);
  expect_identical(serial.connectivity, parallel.connectivity);
  expect_identical(serial.napl, parallel.napl);
}

TEST(ParallelFigures, LifetimeSweepIsJobsInvariant) {
  Workbench serial_bench(tiny_bench());
  Workbench parallel_bench(tiny_bench());
  FigureScale scale = tiny_scale(1);
  scale.alphas = {0.25};  // one cell keeps the doubled cost in check
  const auto serial = lifetime_sweep(serial_bench, scale);
  scale.jobs = 8;
  const auto parallel = lifetime_sweep(parallel_bench, scale);
  expect_identical(serial.connectivity, parallel.connectivity);
  expect_identical(serial.napl, parallel.napl);
}

TEST(ParallelFigures, ConvergenceTraceIsJobsInvariant) {
  Workbench serial_bench(tiny_bench());
  Workbench parallel_bench(tiny_bench());
  const auto serial = convergence_trace(serial_bench, 100.0, 20.0, 11, 1);
  const auto parallel = convergence_trace(parallel_bench, 100.0, 20.0, 11, 8);
  EXPECT_EQ(serial.trust.times(), parallel.trust.times());
  EXPECT_EQ(serial.trust.values(), parallel.trust.values());
  EXPECT_EQ(serial.overlay_r3.values(), parallel.overlay_r3.values());
  EXPECT_EQ(serial.overlay_r9.values(), parallel.overlay_r9.values());
}

TEST(ParallelFigures, SweepJsonCarriesSeriesScaleAndTelemetry) {
  Workbench bench(tiny_bench());
  const FigureScale scale = tiny_scale(2);
  const auto fig = availability_sweep(bench, scale);

  const runner::Json j = to_json(fig);
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("alphas").size(), 2u);
  EXPECT_EQ(j.at("connectivity").size(), 5u);
  EXPECT_EQ(j.at("connectivity").at(0).at("name").as_string(), "trust-f1.0");
  EXPECT_EQ(j.at("connectivity").at(0).at("values").size(), 2u);
  EXPECT_EQ(j.at("telemetry").at("cells").as_uint(), 2u);
  EXPECT_EQ(j.at("telemetry").at("jobs").as_uint(), 2u);
  EXPECT_EQ(j.at("telemetry").at("cell_seconds").size(), 2u);

  // The document survives a dump/parse round trip unchanged.
  EXPECT_EQ(runner::Json::parse(j.dump(2)), j);

  const runner::Json scale_json = to_json(scale);
  EXPECT_EQ(scale_json.at("seed").as_uint(), 3u);
  EXPECT_EQ(scale_json.at("jobs").as_uint(), 2u);
  EXPECT_DOUBLE_EQ(scale_json.at("warmup").as_double(), 40.0);
}

// --- the run-level schedule moves no seed ------------------------------
//
// The alpha sweeps run one pool task per simulation run, heaviest first,
// and the ER baselines wait on one of those runs for their edge count.
// A seed that moved the same way at every `jobs` would pass the
// jobs-invariance tests above, so these tests compare against the sweep
// composed serially, run by run, with the seed salts written out.

// Each test makes four passes over its sweep (the reference and three
// `jobs` values), so the graphs are small and the window short.
WorkbenchOptions reference_bench() {
  WorkbenchOptions opts = tiny_bench();
  opts.trust_nodes = 60;
  return opts;
}

/// Repeated, unsorted alphas and two replicas per alpha.
FigureScale reference_scale(std::size_t jobs) {
  FigureScale scale = tiny_scale(jobs);
  scale.window.warmup = 10.0;
  scale.window.measure = 10.0;
  scale.alphas = {0.75, 0.25, 0.75};
  scale.replicas = 2;
  return scale;
}

OverlayScenario salted_scenario(const FigureScale& scale, double alpha,
                                std::uint64_t salt) {
  OverlayScenario scenario;
  scenario.churn.alpha = alpha;
  scenario.window = scale.window;
  scenario.seed = scale.seed ^ salt;
  scenario.params.pseudonym_lifetime = 3.0 * scenario.churn.mean_offline;
  return scenario;
}

struct RunValue {
  double conn = 0.0;
  double napl = 0.0;
  metrics::ProtocolHealth health;
};

RunValue value_of(const StaticRunResult& run) {
  return {run.stats.frac_disconnected.mean(), run.stats.norm_apl.mean(), {}};
}

RunValue value_of(const OverlayRunResult& run) {
  return {run.stats.frac_disconnected.mean(), run.stats.norm_apl.mean(),
          run.health};
}

/// reference_scale's alphas are {0.75, 0.25, 0.75}: the first cell at
/// the highest alpha is replica 0 of alpha index 0.
constexpr std::size_t kSizingCell = 0;

/// The ER reference: G(n, M) with M the mean snapshot edge count of
/// the sizing run, the f = 0.5 overlay run with Table I lifetime in
/// cell kSizingCell.
graph::Graph er_sized_by(const OverlayRunResult& sizing, std::size_t nodes,
                         const FigureScale& scale, std::uint64_t er_salt) {
  return er_reference(nodes,
                      static_cast<std::size_t>(
                          std::llround(sizing.stats.total_edges.mean())),
                      scale.seed ^ er_salt);
}

/// Every value, CI half-width and health rollup of `fig` equals the
/// fold of `runs[cell][series]` over replicas; the telemetry counts
/// alphas x replicas cells whose run times fit in jobs x wall.
void expect_matches(const SweepFigure& fig,
                    const std::vector<std::vector<RunValue>>& runs,
                    const FigureScale& scale) {
  const std::size_t replicas = scale.replicas;
  ASSERT_EQ(fig.alphas, scale.alphas);
  ASSERT_EQ(fig.replicas, replicas);
  ASSERT_EQ(fig.connectivity.size(), runs.front().size());
  for (std::size_t j = 0; j < runs.front().size(); ++j) {
    metrics::ProtocolHealth health;
    for (std::size_t a = 0; a < scale.alphas.size(); ++a) {
      RunningStats conn, napl;
      for (std::size_t r = 0; r < replicas; ++r) {
        const RunValue& run = runs[a * replicas + r][j];
        conn.add(run.conn);
        napl.add(run.napl);
        health.merge(run.health);
      }
      const std::string where = fig.connectivity[j].name + " at alpha index " +
                                std::to_string(a);
      EXPECT_EQ(fig.connectivity[j].values[a], conn.mean()) << where;
      EXPECT_EQ(fig.connectivity_ci[j].values[a], ci95_half_width(conn))
          << where;
      EXPECT_EQ(fig.napl[j].values[a], napl.mean()) << where;
      EXPECT_EQ(fig.napl_ci[j].values[a], ci95_half_width(napl)) << where;
    }
    EXPECT_TRUE(fig.health[j] == health) << fig.connectivity[j].name;
  }

  const runner::SweepTelemetry& t = fig.telemetry;
  EXPECT_EQ(t.jobs, scale.jobs);
  EXPECT_EQ(t.cells, scale.alphas.size() * replicas);
  ASSERT_EQ(t.cell_seconds.size(), t.cells);
  double sum = 0.0;
  for (const double seconds : t.cell_seconds) {
    EXPECT_GT(seconds, 0.0);
    sum += seconds;
  }
  EXPECT_LE(sum, static_cast<double>(t.jobs) * t.wall_seconds);
}

TEST(ParallelFigures, AvailabilitySweepMatchesSerialReference) {
  Workbench bench(reference_bench());
  const graph::Graph& t10 = bench.trust_graph(1.0);
  const graph::Graph& t05 = bench.trust_graph(0.5);
  const FigureScale scale = reference_scale(1);

  std::vector<std::vector<RunValue>> runs;
  std::vector<OverlayScenario> scenarios;
  OverlayRunResult sizing;
  for (std::size_t i = 0; i < scale.alphas.size() * scale.replicas; ++i) {
    OverlayScenario s =
        salted_scenario(scale, scale.alphas[i / scale.replicas], 101 + i);
    std::vector<RunValue> cell;
    cell.push_back(value_of(run_static(t10, s.churn, s.window, s.seed ^ 1)));
    cell.push_back(value_of(run_static(t05, s.churn, s.window, s.seed ^ 2)));
    cell.push_back(value_of(run_overlay(t10, s)));
    s.seed ^= 0x51;
    const OverlayRunResult f05 = run_overlay(t05, s);
    if (i == kSizingCell) sizing = f05;
    cell.push_back(value_of(f05));
    runs.push_back(std::move(cell));
    scenarios.push_back(s);
  }
  const graph::Graph er = er_sized_by(sizing, t05.num_nodes(), scale, 0xE6);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const OverlayScenario& s = scenarios[i];
    runs[i].push_back(
        value_of(run_static(er, s.churn, s.window, s.seed ^ 3)));
  }

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const FigureScale at_jobs = reference_scale(jobs);
    expect_matches(availability_sweep(bench, at_jobs), runs, at_jobs);
  }
}

TEST(ParallelFigures, LifetimeSweepMatchesSerialReference) {
  Workbench bench(reference_bench());
  const graph::Graph& trust = bench.trust_graph(0.5);
  const FigureScale scale = reference_scale(1);
  const double lifetimes[] = {1.0, 3.0, 9.0, kInfiniteLifetime};

  std::vector<std::vector<RunValue>> runs;
  std::vector<OverlayScenario> scenarios;
  OverlayRunResult sizing;
  for (std::size_t i = 0; i < scale.alphas.size() * scale.replicas; ++i) {
    const OverlayScenario s =
        salted_scenario(scale, scale.alphas[i / scale.replicas], 211 + i);
    std::vector<RunValue> cell;
    cell.push_back(value_of(run_static(trust, s.churn, s.window, s.seed ^ 1)));
    for (std::size_t k = 0; k < std::size(lifetimes); ++k) {
      OverlayScenario variant = s;
      variant.seed ^= (k + 2) * 0x91;
      variant.params.pseudonym_lifetime =
          k + 1 < std::size(lifetimes) ? lifetimes[k] * s.churn.mean_offline
                                       : lifetimes[k];
      const OverlayRunResult run = run_overlay(trust, variant);
      if (i == kSizingCell && k == 1) sizing = run;  // r3: Table I lifetime
      cell.push_back(value_of(run));
    }
    runs.push_back(std::move(cell));
    scenarios.push_back(s);
  }
  const graph::Graph er = er_sized_by(sizing, trust.num_nodes(), scale, 0xE7);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const OverlayScenario& s = scenarios[i];
    runs[i].push_back(
        value_of(run_static(er, s.churn, s.window, s.seed ^ 8)));
  }

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const FigureScale at_jobs = reference_scale(jobs);
    expect_matches(lifetime_sweep(bench, at_jobs), runs, at_jobs);
  }
}

// The ER baselines wait on the sizing run (the f = 0.5 overlay run, or
// r3, of the first cell at the highest alpha). When it fails, they fail
// with it instead of blocking the pool; an empty alpha list is refused.
TEST(ParallelFigures, FailedSizingRunFailsTheSweep) {
  Workbench bench(tiny_bench());
  FigureScale scale = tiny_scale(2);
  scale.window.sample_every = 0.0;  // every run refuses this window
  EXPECT_THROW(availability_sweep(bench, scale), CheckError);
  EXPECT_THROW(lifetime_sweep(bench, scale), CheckError);
  scale = tiny_scale(2);
  scale.alphas.clear();
  EXPECT_THROW(availability_sweep(bench, scale), CheckError);
}

}  // namespace
}  // namespace ppo::experiments
