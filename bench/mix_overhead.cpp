// Full-stack study: the overlay-maintenance protocol running over the
// REAL mix network (per-message onion circuits, X25519 + AEAD layers)
// vs the ideal link layer the paper's evaluation assumes. Small scale
// by necessity — every shuffle message costs circuit_hops X25519
// exchanges — but it demonstrates that the protocol's behaviour is
// preserved and quantifies the anonymity layer's price.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "churn/churn_model.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "overlay/sharded_service.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  const auto nodes = static_cast<std::size_t>(cli.get_int("mix-nodes", 50));
  const double horizon = cli.get_double("mix-horizon", 35.0);

  std::cout << "==============================================================\n"
               "Full stack — overlay maintenance over real onion circuits\n"
               "(" << nodes << " nodes, " << horizon << " shuffle periods, "
               "alpha = 0.75)\n"
               "==============================================================\n\n";

  Rng grng(5);
  const graph::Graph trust = graph::barabasi_albert(nodes, 2, grng);
  const auto model = churn::ExponentialChurn::from_availability(0.75, 30.0);

  TextTable table({"link layer", "disconnected", "overlay edges",
                   "msgs sent", "delivered", "relay fwds", "wall time (s)"});
  for (const bool use_mix : {false, true}) {
    overlay::OverlayServiceOptions options;
    options.params.target_links = 12;
    options.params.cache_size = 60;
    options.params.shuffle_length = 8;
    options.use_mix_network = use_mix;
    options.mix.num_relays = 12;
    options.mix_transport.circuit_hops = 3;

    sim::ShardedSimulator sim(overlay::simulator_options(options, nodes));
    overlay::ShardedOverlayService service(sim, trust, model, options, 9);
    service.start();
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(horizon);
    const auto t1 = std::chrono::steady_clock::now();

    graph::Graph snapshot = service.overlay_snapshot();
    table.add_row(
        {use_mix ? "mix network (3-hop onion)" : "ideal (paper §IV)",
         TextTable::num(graph::fraction_disconnected(
             snapshot, service.online_mask()), 3),
         std::to_string(snapshot.num_edges()),
         std::to_string(service.transport().messages_sent()),
         std::to_string(service.transport().messages_delivered()),
         use_mix ? std::to_string(service.mix_network()->messages_forwarded())
                 : "-",
         TextTable::num(std::chrono::duration<double>(t1 - t0).count(), 2)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: both modes build an overlay of similar shape; "
               "the mix mode pays ~3 relay forwards per message and real "
               "crypto per layer.\n";
  return 0;
}
