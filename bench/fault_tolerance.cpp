// Fault-tolerance study (robustness extension, no paper counterpart):
// the maintained overlay (f = 0.5) under injected per-message loss,
// swept over loss rate x availability alpha, with and without the
// shuffle retry machinery (timeout / bounded retransmit / exponential
// backoff).
//
// Expected shape: without retries, connectivity falls off a cliff as
// loss grows — every lost request or response silently cancels an
// exchange. With retries, the overlay holds its near-zero
// disconnected fraction up to ~20% loss at moderate availability, at
// the cost of extra request traffic (reported in the accounting table).
//
// --losses L1,L2,...  injected drop probabilities  (default 0.1,0.2,0.3,0.5)
// --timeout T         shuffle timeout in periods   (default 0.25)
// --retries N         max retransmissions          (default 2)
// --backoff B         timeout multiplier per retry (default 2)
// --jobs N runs the per-alpha cells in parallel (bit-identical output
// for any N); --json <path> writes the machine-readable report.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Fault tolerance",
                      "overlay connectivity under injected message loss",
                      bench);

  const auto scale = bench::figure_scale(cli);
  experiments::FaultToleranceSpec spec;
  if (cli.has("losses")) {
    const auto losses = bench::parse_double_list(cli.get_string("losses", ""));
    if (!losses.empty()) spec.loss_rates = losses;
  }
  spec.shuffle_timeout = cli.get_double("timeout", spec.shuffle_timeout);
  spec.max_retries =
      static_cast<std::size_t>(cli.get_int("retries",
          static_cast<std::int64_t>(spec.max_retries)));
  spec.retry_backoff = cli.get_double("backoff", spec.retry_backoff);

  bench::TraceSession trace(cli);
  trace.warn_if_parallel(scale.jobs == 0 ? runner::default_jobs() : scale.jobs);
  const bench::WallTimer timer;
  const auto fig = experiments::fault_tolerance_sweep(bench, scale, spec);
  const double wall = timer.seconds();
  trace.finish("fault_tolerance");

  print_series_table(std::cout,
                     "fraction of disconnected nodes vs availability",
                     "alpha", fig.alphas, fig.connectivity);
  std::cout << "\n";
  print_series_table(std::cout, "normalized average path length",
                     "alpha", fig.alphas, fig.napl);
  std::cout << "\n";
  print_series_table(std::cout, "shuffle-exchange completion rate",
                     "alpha", fig.alphas, fig.completion);

  std::cout << "\n# degradation accounting (summed over alphas)\n";
  bench::health_table(fig.connectivity, fig.health,
                      {"protocol_", "transport_"})
      .print(std::cout);

  const auto metrics = experiments::collect_metrics(fig);
  bench::write_json_report(cli, "fault_tolerance", bench, scale,
                           experiments::to_json(fig), wall, &metrics);
  return 0;
}
