// Byzantine-resilience study (robustness extension, no paper
// counterpart): the maintained overlay (f = 0.5) under seeded
// attacker populations — cache polluters, eclipse attackers,
// selective droppers, replayers — swept over the attacker fraction,
// with the protocol defenses (merge validation, per-peer rate
// limiting, sampler slot-churn damping) off ("-open") and on
// ("-defended").
//
// Expected shape: graceful monotone degradation as the attacker
// fraction grows, with the defended arm dominating the open arm from
// ~10% attackers on. The accounting table separates what the adversary
// injected (attack_*) from what the defenses absorbed (defense_*).
// The report also carries the zero-adversary cross-check: a plan with
// every fraction at zero must be bit-identical to no plan at all.
//
// --fractions F1,F2,...  attacker fractions    (default 0,0.05,0.1,0.2,0.3)
// --attacks a,b,...      attack mixes          (default pollute,eclipse,
//                        replay,mixed; also: drop)
// --alpha A              availability          (default 0.75)
// --rate-limit N         defended-arm per-peer request cap   (default 8)
// --rate-window W        rate window in periods              (default 10)
// --min-dwell D          defended-arm sampler dwell          (default 0:
//                        damping shields attacker occupancy too, so it
//                        costs more completion than it saves)
// --timeout T            shuffle timeout, both arms          (default 0.25)
// --retries N            max retransmissions, both arms      (default 1)
// --jobs N runs the per-fraction cells in parallel (bit-identical
// output for any N); --json <path> writes the machine-readable report.
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "experiments/adversary_study.hpp"

namespace {

std::vector<std::string> parse_name_list(const std::string& csv) {
  std::vector<std::string> names;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) names.push_back(item);
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Adversary resilience",
                      "overlay degradation under Byzantine attacker mixes",
                      bench);

  const auto scale = bench::figure_scale(cli);
  experiments::AdversarySpec spec;
  if (cli.has("fractions")) {
    const auto fractions =
        bench::parse_double_list(cli.get_string("fractions", ""));
    if (!fractions.empty()) spec.fractions = fractions;
  }
  if (cli.has("attacks")) {
    const auto attacks = parse_name_list(cli.get_string("attacks", ""));
    if (!attacks.empty()) spec.attacks = attacks;
  }
  spec.alpha = cli.get_double("alpha", spec.alpha);
  spec.peer_rate_limit = static_cast<std::size_t>(cli.get_int(
      "rate-limit", static_cast<std::int64_t>(spec.peer_rate_limit)));
  spec.peer_rate_window = cli.get_double("rate-window", spec.peer_rate_window);
  spec.sampler_min_dwell = cli.get_double("min-dwell", spec.sampler_min_dwell);
  spec.shuffle_timeout = cli.get_double("timeout", spec.shuffle_timeout);
  spec.max_retries = static_cast<std::size_t>(
      cli.get_int("retries", static_cast<std::int64_t>(spec.max_retries)));

  bench::TraceSession trace(cli);
  trace.warn_if_parallel(scale.jobs == 0 ? runner::default_jobs() : scale.jobs);
  const bench::WallTimer timer;
  const auto fig = experiments::adversary_resilience_sweep(bench, scale, spec);
  const double wall = timer.seconds();
  trace.finish("adversary_resilience");

  print_series_table(std::cout,
                     "fraction of disconnected nodes vs attacker fraction",
                     "fraction", fig.fractions, fig.connectivity);
  std::cout << "\n";
  print_series_table(std::cout, "honest shuffle-exchange completion rate",
                     "fraction", fig.fractions, fig.completion);

  std::cout << "\n# attack / defense accounting (summed over fractions > 0)\n";
  bench::health_table(fig.connectivity, fig.health, {"attack_", "defense_"})
      .print(std::cout);
  std::cout << "\nzero-adversary cross-check: "
            << (fig.zero_adversary_identical ? "IDENTICAL" : "DIVERGED")
            << "\n";

  const auto metrics = experiments::collect_metrics(fig);
  bench::write_json_report(cli, "adversary_resilience", bench, scale,
                           experiments::to_json(fig), wall, &metrics);
  return 0;
}
