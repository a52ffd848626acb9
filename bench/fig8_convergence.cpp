// Figure 8 reproduction: connectivity over time at alpha = 0.25
// (f = 0.5) for the trust graph and the overlay with r = 3 and r = 9.
//
// Expected shape (paper §V-B): the overlay starts trust-graph-like,
// improves within a few tens of shuffling periods and stabilizes near
// full connectivity after ~200 periods; the bare trust graph stays at
// ~70% disconnected throughout.
//
// --jobs N runs the three traces in parallel (bit-identical output
// for any N); --json <path> writes the machine-readable report.
#include <iostream>

#include "bench_common.hpp"
#include "metrics/timeseries.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Figure 8",
                      "connectivity over time, alpha = 0.25 (f = 0.5)",
                      bench);

  const double horizon = cli.get_double("horizon", 1000.0);
  const double sample_every = cli.get_double("sample-every", 20.0);
  const auto scale = bench::figure_scale(cli);

  const bench::WallTimer timer;
  const auto fig = experiments::convergence_trace(bench, horizon, sample_every,
                                                  scale.seed, scale.jobs);
  const double wall = timer.seconds();

  metrics::print_time_series(
      std::cout, "fraction of disconnected nodes over time (shuffle periods)",
      {fig.trust, fig.overlay_r3, fig.overlay_r9}, 3);
  const auto metrics = experiments::collect_metrics(fig);
  bench::write_json_report(cli, "fig8_convergence", bench, scale,
                           experiments::to_json(fig), wall, &metrics);
  return 0;
}
