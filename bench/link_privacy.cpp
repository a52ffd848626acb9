// Link-privacy study (§III, the privacy axis): a passive observer
// taps the shuffle traffic of the maintained overlay (f = 0.5) and
// runs the src/inference attacks — pseudonym-lifetime linking,
// common-neighbor overlap, timing correlation — to reconstruct the
// hidden trust graph. Reports precision/recall/AUC against ground
// truth per (pseudonym lifetime, observer coverage) cell, with the
// PR 5 defenses off ("open") and on ("defended").
//
// Expected shape: reconstruction quality rises with pseudonym
// lifetime (stable pseudonyms let the attacker accumulate evidence)
// and with observer coverage; the paper's privacy argument is that
// short lifetimes bound what a passive observer can link. The report
// also carries two determinism cross-checks: zero-coverage observer
// bit-identical to no observer, and identical inference fingerprints
// for every sharded backend K.
//
// --lifetimes L1,L2,...  pseudonym lifetimes      (default 10,30,90)
// --coverages C1,C2,...  observer coverages       (default 0.25,1)
// --alpha A              availability             (default 0.9)
// --rate-limit N         defended-arm per-peer request cap (default 8)
// --rate-window W        rate window in periods   (default 10)
// --no-defended          skip the defended arm (halves the work)
// --link-window W        lifetime-linking window  (default 5)
// --timing-bucket W      timing-attack bucket     (default 10)
// --kinv-shards K1,...   K-invariance shard list  (default 1,2,4)
// --jobs N runs cells in parallel (bit-identical output for any N);
// --json <path> writes the machine-readable report.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "experiments/link_privacy.hpp"

namespace {

std::string fixed3(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", x);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Link privacy",
                      "trust-edge reconstruction by a passive observer",
                      bench);

  const auto scale = bench::figure_scale(cli);
  experiments::LinkPrivacySpec spec;
  if (cli.has("lifetimes")) {
    const auto lifetimes =
        bench::parse_double_list(cli.get_string("lifetimes", ""));
    if (!lifetimes.empty()) spec.lifetimes = lifetimes;
  }
  if (cli.has("coverages")) {
    const auto coverages =
        bench::parse_double_list(cli.get_string("coverages", ""));
    if (!coverages.empty()) spec.coverages = coverages;
  }
  spec.alpha = cli.get_double("alpha", spec.alpha);
  spec.peer_rate_limit = static_cast<std::size_t>(cli.get_int(
      "rate-limit", static_cast<std::int64_t>(spec.peer_rate_limit)));
  spec.peer_rate_window = cli.get_double("rate-window", spec.peer_rate_window);
  spec.defended_arm = !cli.get_bool("no-defended", false);
  spec.attack_options.link_window =
      cli.get_double("link-window", spec.attack_options.link_window);
  spec.attack_options.timing_bucket =
      cli.get_double("timing-bucket", spec.attack_options.timing_bucket);
  if (cli.has("kinv-shards"))
    spec.kinvariance_shards = cli.get_size_list("kinv-shards", "", 1);

  bench::TraceSession trace(cli);
  trace.warn_if_parallel(scale.jobs == 0 ? runner::default_jobs()
                                         : scale.jobs);
  const bench::WallTimer timer;
  const auto fig = experiments::link_privacy_sweep(bench, scale, spec);
  const double wall = timer.seconds();
  trace.finish("link_privacy");

  TextTable table({"lifetime", "coverage", "attack", "arm", "precision",
                   "recall", "auc", "observations", "entities"});
  for (const auto& cell : fig.cells) {
    table.add_row({fixed3(cell.lifetime), fixed3(cell.coverage), cell.attack,
                   cell.defended ? "defended" : "open",
                   fixed3(cell.precision), fixed3(cell.recall),
                   fixed3(cell.auc), std::to_string(
                       static_cast<std::uint64_t>(cell.observations)),
                   std::to_string(
                       static_cast<std::uint64_t>(cell.entities))});
  }
  std::cout << "# trust-edge reconstruction vs ground truth ("
            << fig.true_edges << " true edges, " << fig.replicas
            << " replica(s))\n";
  table.print(std::cout);

  std::cout << "\nzero-observer cross-check: "
            << (fig.zero_observer_identical ? "IDENTICAL" : "DIVERGED")
            << "\n";
  std::cout << "inference K-invariance (shards";
  for (const auto& fp : fig.shard_fingerprints)
    std::cout << " " << fp.shards;
  std::cout << "): " << (fig.kinvariant ? "IDENTICAL" : "DIVERGED") << "\n";

  bench::write_json_report(cli, "link_privacy", bench, scale,
                           experiments::to_json(fig), wall);
  return 0;
}
