// Figure 5 reproduction: degree distribution (number of online nodes
// per degree value) at alpha = 0.5 for the trust graph, the overlay
// and the random reference, for f = 1.0 and f = 0.5.
//
// Expected shape (paper §V-A): the overlay shifts the trust graph's
// distribution far to the right, close to the random graph but less
// concentrated because skewed trust links remain.
//
// --jobs N runs the per-f cells in parallel (bit-identical output for
// any N); --json <path> writes the machine-readable report.
#include <iostream>

#include "bench_common.hpp"
#include "common/histogram.hpp"

namespace {

/// Bins a sparse degree histogram into fixed-width buckets so the
/// three series print on one grid.
std::vector<double> binned(const ppo::Histogram& h, std::size_t max_degree,
                           std::size_t bin_width) {
  std::vector<double> out(max_degree / bin_width + 1, 0.0);
  for (const auto& [degree, count] : h.bins()) {
    const std::size_t bin = std::min(degree / bin_width, out.size() - 1);
    out[bin] += static_cast<double>(count);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Figure 5", "degree distributions at alpha = 0.5",
                      bench);

  const auto scale = bench::figure_scale(cli);
  const bench::WallTimer timer;
  const auto fig = experiments::degree_distributions(bench, scale);
  const double wall = timer.seconds();
  const std::size_t bin_width =
      static_cast<std::size_t>(cli.get_int("bin-width", 5));

  for (const auto& entry : fig.entries) {
    std::size_t max_degree = 0;
    for (const Histogram* h : {&entry.trust, &entry.overlay, &entry.random})
      if (!h->empty()) max_degree = std::max(max_degree, h->max_value());

    std::vector<double> xs;
    for (std::size_t d = 0; d <= max_degree / bin_width; ++d)
      xs.push_back(static_cast<double>(d * bin_width));

    print_series_table(
        std::cout,
        "number of nodes per degree bin, f = " + TextTable::num(entry.f),
        "degree>=",
        xs,
        {Series{"trust-graph", binned(entry.trust, max_degree, bin_width)},
         Series{"overlay", binned(entry.overlay, max_degree, bin_width)},
         Series{"random", binned(entry.random, max_degree, bin_width)}},
        0);
    std::cout << "means: trust=" << TextTable::num(entry.trust.mean(), 2)
              << " overlay=" << TextTable::num(entry.overlay.mean(), 2)
              << " random=" << TextTable::num(entry.random.mean(), 2)
              << "\n\n";
  }
  const auto metrics = experiments::collect_metrics(fig);
  bench::write_json_report(cli, "fig5_degree_distribution", bench, scale,
                           experiments::to_json(fig), wall, &metrics);
  return 0;
}
