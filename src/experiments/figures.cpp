#include "experiments/figures.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <future>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace ppo::experiments {

namespace {

OverlayScenario base_scenario(const FigureScale& scale, double alpha,
                              std::uint64_t seed_salt) {
  OverlayScenario scenario;
  scenario.churn.alpha = alpha;
  scenario.window = scale.window;
  scenario.seed = scale.seed ^ seed_salt;
  // Table I: lifetime = 3 x Toff.
  scenario.params.pseudonym_lifetime = 3.0 * scenario.churn.mean_offline;
  scenario.shards = scale.shards;
  scenario.warm_start_dir = scale.warm_start_dir;
  return scenario;
}

runner::SweepOptions sweep_options(const FigureScale& scale,
                                   const char* label) {
  runner::SweepOptions opt;
  opt.jobs = scale.jobs;
  opt.root_seed = scale.seed;
  opt.progress = scale.progress;
  opt.label = label;
  return opt;
}

/// What one run contributes to its series in one alpha cell. Static
/// baselines leave `health` and `edges` zero.
struct CellValue {
  double conn = 0.0;
  double napl = 0.0;
  metrics::ProtocolHealth health;
  double edges = 0.0;  // mean snapshot edge count (sizes the ER reference)
};

CellValue static_value(const StaticRunResult& run) {
  return {run.stats.frac_disconnected.mean(), run.stats.norm_apl.mean(), {},
          0.0};
}

CellValue overlay_value(const OverlayRunResult& run) {
  return {run.stats.frac_disconnected.mean(), run.stats.norm_apl.mean(),
          run.health, run.stats.total_edges.mean()};
}

/// Common shape of the Figure 3/4 and Figure 7 sweeps: one shared
/// Erdős–Rényi reference sized from a converged f = 0.5 overlay run,
/// and one independent simulation per (alpha cell, series). `run`
/// computes series `series` of cell `index` at `alpha`. The last series
/// is the ER baseline and the only one that reads `er`; the others get
/// an empty graph. Runs read only `er` and the (pre-built, cached)
/// trust graphs, so they are safe to run on the pool; their seeds
/// depend only on (scale.seed, cell index).
struct AlphaSweepSpec {
  const char* label;
  std::vector<const char*> series;  // output series names, in order
  /// The series whose run in the first cell at the highest alpha sizes
  /// the ER reference: an overlay with Table I lifetime on
  /// trust_graph(0.5).
  std::size_t sizing_series = 0;
  std::uint64_t er_seed_salt = 0;  // salt of the ER construction seed
  std::function<CellValue(std::size_t series, double alpha, std::size_t index,
                          const graph::Graph& er)>
      run;
};

SweepFigure run_alpha_sweep(Workbench& bench, const FigureScale& scale,
                            const AlphaSweepSpec& spec) {
  PPO_CHECK_MSG(!scale.alphas.empty(), "an alpha sweep needs an alpha");
  SweepFigure fig;
  fig.alphas = scale.alphas;

  // Alpha-major cell layout: cell index a*R + r. With R = 1 the index
  // equals the historical per-alpha index, so every seed salt — and
  // therefore every trajectory — is unchanged.
  const std::size_t replicas = std::max<std::size_t>(1, scale.replicas);
  fig.replicas = replicas;
  const std::size_t cells = scale.alphas.size() * replicas;
  const std::size_t width = spec.series.size();
  const std::size_t er_series = width - 1;
  const auto alpha_of = [&](std::size_t cell) {
    return scale.alphas[cell / replicas];
  };

  // One pool task per run: every cell's non-ER runs, highest alpha
  // first (a run's work grows with its online population; the stable
  // sort keeps index order within one alpha), then the ER baselines.
  struct Run {
    std::size_t cell;
    std::size_t series;
  };
  std::vector<Run> runs;
  runs.reserve(cells * width);
  for (std::size_t c = 0; c < cells; ++c)
    for (std::size_t j = 0; j < er_series; ++j) runs.push_back({c, j});
  std::stable_sort(runs.begin(), runs.end(), [&](const Run& a, const Run& b) {
    return alpha_of(a.cell) > alpha_of(b.cell);
  });
  for (std::size_t c = 0; c < cells; ++c) runs.push_back({c, er_series});

  // ONE Erdős–Rényi reference graph, sized once from the converged
  // overlay (highest availability in the sweep) — the paper compares
  // against a fixed random graph "of similar size and average
  // fan-out", not one resized per churn level. Its edge count M is the
  // sizing series' mean in the first cell at alpha_max (replica 0).
  const std::size_t nodes = bench.trust_graph(0.5).num_nodes();
  const std::size_t sizing_cell =
      static_cast<std::size_t>(
          std::max_element(scale.alphas.begin(), scale.alphas.end()) -
          scale.alphas.begin()) *
      replicas;
  std::promise<graph::Graph> er_promise;
  const std::shared_future<graph::Graph> er_future =
      er_promise.get_future().share();
  const graph::Graph no_er;

  std::vector<CellValue> values(cells * width);
  std::vector<double> run_seconds(cells * width, 0.0);
  // The ER runs block on the sizing run, which fulfils the future or,
  // on any exception, fails it. They cannot deadlock: the sizing run
  // is in the first alpha group, ahead of every ER run, ThreadPool
  // hands out tasks in FIFO order, and the sizing run never waits, so
  // whenever a worker reaches an ER run, the sizing run is already
  // running or done.
  const runner::SweepTelemetry pass = runner::run_indexed(
      runs.size(), sweep_options(scale, spec.label),
      [&](const runner::CellInfo& task) {
        const Run run = runs[task.index];
        const bool sizing =
            run.cell == sizing_cell && run.series == spec.sizing_series;
        const graph::Graph& er =
            run.series == er_series ? er_future.get() : no_er;
        const auto start = std::chrono::steady_clock::now();
        const std::size_t slot = run.cell * width + run.series;
        try {
          values[slot] =
              spec.run(run.series, alpha_of(run.cell), run.cell, er);
          run_seconds[slot] = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
          if (sizing) {
            const auto edges =
                static_cast<std::size_t>(std::llround(values[slot].edges));
            er_promise.set_value(
                er_reference(nodes, edges, scale.seed ^ spec.er_seed_salt));
          }
        } catch (...) {
          if (sizing) er_promise.set_exception(std::current_exception());
          throw;
        }
      });

  // Fold runs back into cells.
  fig.telemetry.cells = cells;
  fig.telemetry.jobs = pass.jobs;
  fig.telemetry.wall_seconds = pass.wall_seconds;
  fig.telemetry.cell_seconds.assign(cells, 0.0);
  for (std::size_t c = 0; c < cells; ++c)
    for (std::size_t j = 0; j < width; ++j)
      fig.telemetry.cell_seconds[c] += run_seconds[c * width + j];

  fig.health.resize(width);
  for (std::size_t j = 0; j < width; ++j) {
    Series conn{spec.series[j], {}}, napl{spec.series[j], {}};
    Series conn_ci{spec.series[j], {}}, napl_ci{spec.series[j], {}};
    for (std::size_t a = 0; a < scale.alphas.size(); ++a) {
      RunningStats sc, sn;
      for (std::size_t r = 0; r < replicas; ++r) {
        const CellValue& value = values[(a * replicas + r) * width + j];
        sc.add(value.conn);
        sn.add(value.napl);
        fig.health[j].merge(value.health);
      }
      conn.values.push_back(sc.mean());
      napl.values.push_back(sn.mean());
      conn_ci.values.push_back(ci95_half_width(sc));
      napl_ci.values.push_back(ci95_half_width(sn));
    }
    fig.connectivity.push_back(std::move(conn));
    fig.napl.push_back(std::move(napl));
    fig.connectivity_ci.push_back(std::move(conn_ci));
    fig.napl_ci.push_back(std::move(napl_ci));
  }
  return fig;
}

}  // namespace

SweepFigure availability_sweep(Workbench& bench, const FigureScale& scale) {
  const graph::Graph& t10 = bench.trust_graph(1.0);
  const graph::Graph& t05 = bench.trust_graph(0.5);

  AlphaSweepSpec spec;
  spec.label = "availability-sweep";
  spec.series = {"trust-f1.0", "trust-f0.5", "overlay-f1.0", "overlay-f0.5",
                 "random"};
  spec.sizing_series = 3;  // overlay-f0.5
  spec.er_seed_salt = 0xE6;
  spec.run = [&scale, &t10, &t05](std::size_t series, double alpha,
                                  std::size_t i, const graph::Graph& er) {
    OverlayScenario scenario = base_scenario(scale, alpha, 101 + i);
    const ChurnSpec& churn = scenario.churn;
    switch (series) {
      case 0:
        return static_value(
            run_static(t10, churn, scale.window, scenario.seed ^ 1));
      case 1:
        return static_value(
            run_static(t05, churn, scale.window, scenario.seed ^ 2));
      case 2:
        return overlay_value(run_overlay(t10, scenario));
      case 3:
        scenario.seed ^= 0x51;
        return overlay_value(run_overlay(t05, scenario));
      default:  // the ER seed keeps the f = 0.5 overlay's 0x51 salt
        return static_value(
            run_static(er, churn, scale.window, scenario.seed ^ 0x51 ^ 3));
    }
  };
  return run_alpha_sweep(bench, scale, spec);
}

SweepFigure lifetime_sweep(Workbench& bench, const FigureScale& scale) {
  const graph::Graph& trust = bench.trust_graph(0.5);
  static constexpr double kRatios[] = {1.0, 3.0, 9.0, -1.0};

  AlphaSweepSpec spec;
  spec.label = "lifetime-sweep";
  spec.series = {"trust-graph", "r1", "r3", "r9", "r-infinite", "random"};
  spec.sizing_series = 2;  // r3: Table I lifetime
  spec.er_seed_salt = 0xE7;
  spec.run = [&scale, &trust](std::size_t series, double alpha,
                              std::size_t i, const graph::Graph& er) {
    OverlayScenario scenario = base_scenario(scale, alpha, 211 + i);
    const ChurnSpec& churn = scenario.churn;
    if (series == 0)
      return static_value(
          run_static(trust, churn, scale.window, scenario.seed ^ 1));
    if (series == 1 + std::size(kRatios))
      return static_value(
          run_static(er, churn, scale.window, scenario.seed ^ 8));
    const std::size_t k = series - 1;
    scenario.seed ^= (k + 2) * 0x91;
    scenario.params.pseudonym_lifetime =
        kRatios[k] < 0 ? kInfiniteLifetime
                       : kRatios[k] * scenario.churn.mean_offline;
    return overlay_value(run_overlay(trust, scenario));
  };
  return run_alpha_sweep(bench, scale, spec);
}

DegreeFigure degree_distributions(Workbench& bench, const FigureScale& scale,
                                  const std::vector<double>& fs) {
  // Build the trust graphs up front: cells must not race on the
  // workbench cache, and prefetching keeps cell wall times honest.
  for (const double f : fs) bench.trust_graph(f);

  auto grid = runner::run_grid(
      fs, sweep_options(scale, "degree-distributions"),
      [&](double f, const runner::CellInfo& cell) {
        const graph::Graph& trust = bench.trust_graph(f);
        OverlayScenario scenario =
            base_scenario(scale, 0.5, 311 + cell.index);

        const auto s_trust =
            run_static(trust, scenario.churn, scale.window, scenario.seed ^ 1);
        const auto o = run_overlay(trust, scenario);
        const auto er = er_reference(trust.num_nodes(), o.final_total_edges,
                                     scenario.seed ^ 5);
        const auto s_er =
            run_static(er, scenario.churn, scale.window, scenario.seed ^ 6);

        return DegreeFigure::PerF{f, s_trust.final_degree, o.final_degree,
                                  s_er.final_degree, o.health};
      });

  DegreeFigure fig;
  fig.entries = std::move(grid.cells);
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

MessageFigure message_overhead(Workbench& bench, const FigureScale& scale,
                               const std::vector<double>& fs) {
  for (const double f : fs) bench.trust_graph(f);

  auto grid = runner::run_grid(
      fs, sweep_options(scale, "message-overhead"),
      [&](double f, const runner::CellInfo& cell) {
        const graph::Graph& trust = bench.trust_graph(f);
        const OverlayScenario scenario =
            base_scenario(scale, 0.5, 411 + cell.index);
        const auto run = run_overlay(trust, scenario);

        MessageFigure::PerF entry;
        entry.f = f;
        entry.health = run.health;
        entry.rows.reserve(run.per_node.size());
        for (std::size_t v = 0; v < run.per_node.size(); ++v) {
          const auto& pn = run.per_node[v];
          entry.rows.push_back(MessageFigure::Row{
              0, pn.trust_degree, pn.max_out_degree,
              pn.messages_per_online_period});
        }
        std::sort(entry.rows.begin(), entry.rows.end(),
                  [](const auto& a, const auto& b) {
                    return a.trust_degree > b.trust_degree;
                  });
        double total = 0.0;
        for (std::size_t r = 0; r < entry.rows.size(); ++r) {
          entry.rows[r].rank = r + 1;
          total += entry.rows[r].messages_per_period;
        }
        entry.mean_messages =
            entry.rows.empty()
                ? 0.0
                : total / static_cast<double>(entry.rows.size());
        return entry;
      });

  MessageFigure fig;
  fig.entries = std::move(grid.cells);
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

ConvergenceFigure convergence_trace(Workbench& bench, double horizon,
                                    double sample_every, std::uint64_t seed,
                                    std::size_t jobs) {
  const graph::Graph& trust = bench.trust_graph(0.5);
  ConvergenceFigure fig;

  ChurnSpec churn;
  churn.alpha = 0.25;

  // Three independent runs: the static trust baseline and the overlay
  // at r = 3 and r = 9.
  runner::SweepOptions opt;
  opt.jobs = jobs;
  opt.root_seed = seed;
  opt.label = "convergence-trace";
  struct TraceCell {
    metrics::TimeSeries series;
    metrics::ProtocolHealth health;
  };
  auto grid = runner::run_grid(3, opt, [&](const runner::CellInfo& cell) {
    TraceCell out;
    if (cell.index == 0) {
      out.series =
          run_static_trace(trust, churn, horizon, sample_every, seed ^ 1);
      return out;
    }
    const double ratio = cell.index == 1 ? 3.0 : 9.0;
    OverlayScenario scenario;
    scenario.churn = churn;
    scenario.seed = seed ^ static_cast<std::uint64_t>(ratio);
    scenario.params.pseudonym_lifetime = ratio * churn.mean_offline;
    OverlayTraceSpec spec;
    spec.horizon = horizon;
    spec.sample_every = sample_every;
    spec.track_connectivity = true;
    auto trace = run_overlay_trace(trust, scenario, spec);
    out.series = std::move(trace.connectivity);
    out.health = trace.health;
    return out;
  });

  grid.cells[0].series.set_name(fig.trust.name());
  fig.trust = std::move(grid.cells[0].series);
  grid.cells[1].series.set_name(fig.overlay_r3.name());
  fig.overlay_r3 = std::move(grid.cells[1].series);
  fig.health_r3 = grid.cells[1].health;
  grid.cells[2].series.set_name(fig.overlay_r9.name());
  fig.overlay_r9 = std::move(grid.cells[2].series);
  fig.health_r9 = grid.cells[2].health;
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

namespace {

std::string loss_label(const char* prefix, double loss) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s-loss%.2f", prefix, loss);
  return buf;
}

}  // namespace

FaultFigure fault_tolerance_sweep(Workbench& bench, const FigureScale& scale,
                                  const FaultToleranceSpec& spec) {
  const graph::Graph& trust = bench.trust_graph(0.5);

  std::vector<std::string> names{"lossless"};
  for (const double loss : spec.loss_rates) {
    names.push_back(loss_label("retry", loss));
    names.push_back(loss_label("no-retry", loss));
  }

  /// One series' contribution from one alpha cell.
  struct CellEntry {
    double conn = 0.0;
    double napl = 0.0;
    metrics::ProtocolHealth health;
  };

  const std::size_t replicas = std::max<std::size_t>(1, scale.replicas);
  auto grid = runner::run_grid(
      scale.alphas.size() * replicas,
      sweep_options(scale, "fault-tolerance-sweep"),
      [&](const runner::CellInfo& cell) {
        const double alpha = scale.alphas[cell.index / replicas];
        std::vector<CellEntry> values;
        values.reserve(1 + 2 * spec.loss_rates.size());
        const OverlayScenario base =
            base_scenario(scale, alpha, 511 + cell.index);

        const auto run_one = [&](const OverlayScenario& s) {
          const auto run = run_overlay(trust, s);
          values.push_back(CellEntry{run.stats.frac_disconnected.mean(),
                                     run.stats.norm_apl.mean(), run.health});
        };

        run_one(base);  // lossless baseline: no plan, no timer
        for (std::size_t k = 0; k < spec.loss_rates.size(); ++k) {
          OverlayScenario lossy = base;
          fault::FaultPlan plan;
          plan.drop_probability = spec.loss_rates[k];
          plan.seed = base.seed ^ (0xFA0000 + k);
          lossy.faults = plan;
          lossy.params.shuffle_timeout = spec.shuffle_timeout;
          lossy.params.shuffle_retry_backoff = spec.retry_backoff;

          lossy.params.shuffle_max_retries = spec.max_retries;
          run_one(lossy);

          // Same loss pattern, retries off: the degradation the
          // hardening buys back.
          lossy.params.shuffle_max_retries = 0;
          run_one(lossy);
        }
        return values;
      });

  FaultFigure fig;
  fig.alphas = scale.alphas;
  fig.replicas = replicas;
  fig.health.resize(names.size());
  for (std::size_t j = 0; j < names.size(); ++j) {
    Series conn{names[j], {}}, napl{names[j], {}}, comp{names[j], {}};
    Series conn_ci{names[j], {}}, napl_ci{names[j], {}}, comp_ci{names[j], {}};
    for (std::size_t a = 0; a < scale.alphas.size(); ++a) {
      RunningStats sc, sn, sp;
      for (std::size_t r = 0; r < replicas; ++r) {
        const auto& values = grid.cells[a * replicas + r];
        PPO_CHECK(values.size() == names.size());
        sc.add(values[j].conn);
        sn.add(values[j].napl);
        sp.add(values[j].health.completion_rate());
        fig.health[j].merge(values[j].health);
      }
      conn.values.push_back(sc.mean());
      napl.values.push_back(sn.mean());
      comp.values.push_back(sp.mean());
      conn_ci.values.push_back(ci95_half_width(sc));
      napl_ci.values.push_back(ci95_half_width(sn));
      comp_ci.values.push_back(ci95_half_width(sp));
    }
    fig.connectivity.push_back(std::move(conn));
    fig.napl.push_back(std::move(napl));
    fig.completion.push_back(std::move(comp));
    fig.connectivity_ci.push_back(std::move(conn_ci));
    fig.napl_ci.push_back(std::move(napl_ci));
    fig.completion_ci.push_back(std::move(comp_ci));
  }
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

ReplacementFigure replacement_trace(Workbench& bench, double horizon,
                                    double sample_every, std::uint64_t seed,
                                    std::size_t jobs) {
  const graph::Graph& trust = bench.trust_graph(0.5);
  ReplacementFigure fig;
  static constexpr double kRatios[] = {3.0, 9.0, -1.0};

  runner::SweepOptions opt;
  opt.jobs = jobs;
  opt.root_seed = seed;
  opt.label = "replacement-trace";
  struct TraceCell {
    metrics::TimeSeries series;
    metrics::ProtocolHealth health;
  };
  auto grid = runner::run_grid(
      std::size(kRatios), opt, [&](const runner::CellInfo& cell) {
        const double ratio = kRatios[cell.index];
        OverlayScenario scenario;
        scenario.churn.alpha = 0.25;
        scenario.seed = seed ^ static_cast<std::uint64_t>(ratio + 100);
        scenario.params.pseudonym_lifetime =
            ratio < 0 ? kInfiniteLifetime
                      : ratio * scenario.churn.mean_offline;
        OverlayTraceSpec spec;
        spec.horizon = horizon;
        spec.sample_every = sample_every;
        spec.track_connectivity = false;
        spec.track_replacements = true;
        auto trace = run_overlay_trace(trust, scenario, spec);
        return TraceCell{std::move(trace.replacements), trace.health};
      });

  grid.cells[0].series.set_name(fig.r3.name());
  fig.r3 = std::move(grid.cells[0].series);
  fig.health_r3 = grid.cells[0].health;
  grid.cells[1].series.set_name(fig.r9.name());
  fig.r9 = std::move(grid.cells[1].series);
  fig.health_r9 = grid.cells[1].health;
  grid.cells[2].series.set_name(fig.r_infinite.name());
  fig.r_infinite = std::move(grid.cells[2].series);
  fig.health_r_infinite = grid.cells[2].health;
  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

}  // namespace ppo::experiments
