// Figure 9 reproduction: pseudonym links replaced per (online) node
// per shuffling period over time, at alpha = 0.25 (f = 0.5), for
// r in {3, 9, infinity}.
//
// Expected shape (paper §V-B): r = infinity converges to ~0 once the
// best links are found; r = 3 sustains the highest steady replacement
// rate; r = 9 sits in between and shows a decaying oscillation early
// on (synchronized expiry of the pseudonyms minted at start-up).
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
  bench::print_header("Figure 9",
                      "link replacements per node per shuffle period, "
                      "alpha = 0.25 (f = 0.5)",
                      bench);

  const double horizon = cli.get_double("horizon", 10'000.0);
  const double sample_every = cli.get_double("sample-every", 100.0);
  const auto scale = bench::figure_scale(cli);

  const bench::WallTimer timer;
  const auto fig = experiments::replacement_trace(bench, horizon, sample_every,
                                                  scale.seed, scale.jobs);
  const double wall = timer.seconds();

  metrics::print_time_series(
      std::cout,
      "pseudonym links replaced per node per shuffle period over time",
      {fig.r3, fig.r9, fig.r_infinite}, 3);
  const auto metrics = experiments::collect_metrics(fig);
  bench::write_json_report(cli, "fig9_link_replacement", bench, scale,
                           experiments::to_json(fig), wall, &metrics);
  return 0;
}
