// Quickstart: build a trust graph, run the overlay-maintenance
// service under churn, and watch the overlay beat the bare trust
// graph on the paper's two robustness metrics.
//
//   ./quickstart [--nodes=400] [--alpha=0.4] [--periods=250]
#include <iostream>

#include "churn/churn_model.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "graph/components.hpp"
#include "graph/paths.hpp"
#include "graph/sampling.hpp"
#include "graph/socialgen.hpp"
#include "overlay/sharded_service.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 400));
  const double alpha = cli.get_double("alpha", 0.4);
  const double periods = cli.get_double("periods", 250.0);

  // 1. A trust graph: here sampled invitation-style from a synthetic
  //    social graph, exactly like the paper's evaluation setup.
  Rng rng(7);
  graph::SocialGraphOptions social;
  social.num_nodes = 20'000;
  const graph::Graph base = graph::synthetic_social_graph(social, rng);
  const graph::Graph trust =
      graph::invitation_sample(base, {.target_size = nodes, .f = 0.5}, rng);
  std::cout << "trust graph: " << trust.num_nodes() << " nodes, "
            << trust.num_edges() << " edges\n";

  // 2. Churn: every node alternates online/offline with availability
  //    alpha (exponential on/off durations, Toff = 30 periods).
  const auto churn = churn::ExponentialChurn::from_availability(alpha, 30.0);

  // 3. The overlay-maintenance service (Table I defaults: 50-link
  //    target, 400-entry cache, l = 40, pseudonym lifetime 3 x Toff) on
  //    a one-shard simulator (pass a shard count K > 1 to
  //    simulator_options for K threads; the run is the same for every K).
  sim::ShardedSimulator sim(overlay::simulator_options({}, trust.num_nodes()));
  overlay::ShardedOverlayService service(sim, trust, churn, {}, rng.next_u64());
  service.start();
  sim.run_until(periods);

  // 4. Compare the maintained overlay against the bare trust graph on
  //    the same online population.
  graph::Graph overlay = service.overlay_snapshot();
  const auto& online = service.online_mask();
  Rng metric_rng(1);

  TextTable table({"metric", "trust graph", "overlay"});
  table.add_row({"edges", std::to_string(trust.num_edges()),
                 std::to_string(overlay.num_edges())});
  table.add_row(
      {"fraction of online nodes disconnected",
       TextTable::num(graph::fraction_disconnected(trust, online), 3),
       TextTable::num(graph::fraction_disconnected(overlay, online), 3)});
  table.add_row(
      {"normalized avg path length",
       TextTable::num(graph::normalized_average_path_length(
                          trust, metric_rng, nodes, online), 2),
       TextTable::num(graph::normalized_average_path_length(
                          overlay, metric_rng, nodes, online), 2)});
  table.add_row({"messages sent (total)", "-",
                 std::to_string(service.total_counters().messages_sent())});
  table.print(std::cout);

  std::cout << "\nonline now: " << service.online_count() << "/" << nodes
            << " (alpha = " << alpha << ")\n";
  return 0;
}
