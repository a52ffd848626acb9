// Figure 6 reproduction: average messages sent per shuffle period per
// node (while online) and maximum overlay out-degree, nodes ranked by
// their trust-graph degree; alpha = 0.5, f in {1.0, 0.5}.
//
// Expected shape (paper §V-A): network-wide average ~2 messages per
// period (1 request + 1 response); nodes with more overlay neighbors
// (trust-graph hubs) receive and answer more shuffle requests; max
// out-degree ~ max(target, trust degree).
//
// --jobs N runs the per-f cells in parallel (bit-identical output for
// any N); --json <path> writes the machine-readable report.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Figure 6",
                      "per-node message load by trust-degree rank, alpha = 0.5",
                      bench);

  const auto scale = bench::figure_scale(cli);
  const bench::WallTimer timer;
  const auto fig = experiments::message_overhead(bench, scale);
  const double wall = timer.seconds();

  for (const auto& entry : fig.entries) {
    std::cout << "--- f = " << TextTable::num(entry.f) << " ---\n";
    TextTable table({"rank", "trust-degree", "max-out-degree",
                     "msgs/period"});
    // Log-spaced ranks, mirroring the paper's log-log axes.
    std::size_t rank = 1;
    while (rank <= entry.rows.size()) {
      const auto& row = entry.rows[rank - 1];
      table.add_row({std::to_string(row.rank),
                     std::to_string(row.trust_degree),
                     std::to_string(row.max_out_degree),
                     TextTable::num(row.messages_per_period, 2)});
      rank = std::max(rank + 1, rank * 3 / 2);
    }
    table.print(std::cout);
    std::cout << "network-wide mean messages/period = "
              << TextTable::num(entry.mean_messages, 3)
              << "  (paper: ~2 at alpha=1; lower under churn because "
                 "requests to offline peers get no response)\n\n";
  }
  const auto metrics = experiments::collect_metrics(fig);
  bench::write_json_report(cli, "fig6_message_overhead", bench, scale,
                           experiments::to_json(fig), wall, &metrics);
  return 0;
}
