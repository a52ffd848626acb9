// §III-E-2 threat analysis, made empirical: colluding internal
// observers n (neighbor of a) and o_1..o_k (neighbors of b) try to
// detect an overlay link between their neighbors a and b. n plants a
// marker pseudonym P into a's cache only; the attack "succeeds" if b
// is seen holding P within one propagation window and some colluder
// o_i receives it from b within the next — the timing signature the
// paper describes.
//
// Expected outcome (matching the paper's argument): single-colluder
// success probability is small (a must pick b among all its overlay
// links and forward P among its whole cache); success grows with the
// number of colluders around b, and stays far below certainty — the
// basis for the paper's claim that the attack "is unlikely to occur".
#include <iostream>

#include "bench_common.hpp"
#include "churn/churn_model.hpp"
#include "overlay/sharded_service.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Attack study",
                      "§III-E timing analysis by colluding internal observers",
                      bench);

  const graph::Graph& trust = bench.trust_graph(0.5);
  const std::size_t trials =
      static_cast<std::size_t>(cli.get_int("trials", 400));
  const double window = cli.get_double("window", 2.0);

  // Full availability: the attack's best case (no churn noise).
  const auto model = churn::ExponentialChurn::from_availability(1.0, 30.0);
  sim::ShardedSimulator sim(overlay::simulator_options({}, trust.num_nodes()));
  overlay::ShardedOverlayService service(sim, trust, model, {}, 7);
  service.start();
  sim.run_until(100.0);  // converged overlay

  Rng rng(99);
  TextTable table({"colluders-at-b", "trials", "b-reached", "detected",
                   "success-rate"});
  for (const std::size_t colluders : {1u, 2u, 4u, 8u}) {
    std::size_t b_reached = 0, detected = 0, ran = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      // Random trust edge (a, b) where b has enough other neighbors
      // to host the colluders.
      const auto a = static_cast<graph::NodeId>(
          rng.uniform_u64(trust.num_nodes()));
      if (trust.degree(a) == 0) continue;
      const auto a_nbrs = trust.neighbors(a);
      const auto b = a_nbrs[rng.uniform_u64(a_nbrs.size())];
      std::vector<graph::NodeId> observers;
      for (const auto nb : trust.neighbors(b))
        if (nb != a) observers.push_back(nb);
      if (observers.size() < colluders) continue;
      observers = rng.sample(observers, colluders);
      ++ran;

      // n plants a marker (registered so it behaves like a real
      // pseudonym) into a's cache only.
      const auto marker = service.mint_pseudonym(a, 30.0);
      service.node(a).inject_cache_record(marker);

      sim.run_until(sim.now() + window);
      if (!service.node(b).cache().contains(marker.value)) continue;
      ++b_reached;

      sim.run_until(sim.now() + window);
      for (const auto o : observers) {
        if (service.node(o).cache().contains(marker.value)) {
          ++detected;
          break;
        }
      }
    }
    table.add_row({std::to_string(colluders), std::to_string(ran),
                   std::to_string(b_reached), std::to_string(detected),
                   ran == 0 ? "-" : TextTable::num(
                       static_cast<double>(detected) /
                       static_cast<double>(ran), 3)});
  }
  table.print(std::cout);
  std::cout << "\n(detection requires the full n -> a -> b -> o_i relay "
               "within two windows of " << window << " sp each)\n";
  return 0;
}
