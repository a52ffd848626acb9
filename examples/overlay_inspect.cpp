// Inspector: runs a small overlay and dumps (a) per-node link
// accounting and (b) Graphviz DOT files of the trust graph and the
// overlay snapshot (offline nodes dashed), for visual inspection:
//
//   ./overlay_inspect --nodes=60 --alpha=0.6 --dot-prefix=/tmp/ppo
//   dot -Tsvg /tmp/ppo_overlay.dot -o overlay.svg
#include <fstream>
#include <iostream>

#include "churn/churn_model.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "graph/io.hpp"
#include "graph/sampling.hpp"
#include "graph/socialgen.hpp"
#include "overlay/sharded_service.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 60));
  const double alpha = cli.get_double("alpha", 0.6);
  const std::string prefix = cli.get_string("dot-prefix", "");

  Rng rng(23);
  graph::SocialGraphOptions social;
  social.num_nodes = 20'000;
  const graph::Graph base = graph::synthetic_social_graph(social, rng);
  const graph::Graph trust =
      graph::invitation_sample(base, {.target_size = nodes, .f = 0.5}, rng);

  overlay::OverlayServiceOptions options;
  options.params.target_links = 12;
  options.params.cache_size = 80;
  options.params.shuffle_length = 10;

  const auto churn = churn::ExponentialChurn::from_availability(alpha, 30.0);
  sim::ShardedSimulator sim(overlay::simulator_options(options, trust.num_nodes()));
  overlay::ShardedOverlayService service(sim, trust, churn, options,
                                         rng.next_u64());
  service.start();
  sim.run_until(150.0);

  graph::Graph snapshot = service.overlay_snapshot();

  TextTable table({"node", "online", "trust-deg", "pseudonym-links",
                   "slots", "cache", "msgs sent", "own pseudonym expires"});
  for (graph::NodeId v = 0; v < nodes; ++v) {
    const auto& node = service.node(v);
    const auto own = node.own_pseudonym();
    table.add_row({std::to_string(v),
                   service.is_online(v) ? "yes" : "no",
                   std::to_string(node.trust_degree()),
                   std::to_string(node.pseudonym_links().size()),
                   std::to_string(node.slot_capacity()),
                   std::to_string(node.cache().size()),
                   std::to_string(node.counters().messages_sent()),
                   own ? TextTable::num(own->expiry, 1) : "-"});
  }
  table.print(std::cout);
  std::cout << "\noverlay: " << snapshot.num_edges() << " edges ("
            << trust.num_edges() << " trusted + "
            << snapshot.num_edges() - trust.num_edges()
            << " pseudonym links), t = " << sim.now() << "\n";

  if (!prefix.empty()) {
    std::ofstream trust_dot(prefix + "_trust.dot");
    graph::write_dot(trust_dot, trust, service.online_mask(), "trust");
    std::ofstream overlay_dot(prefix + "_overlay.dot");
    graph::write_dot(overlay_dot, snapshot, service.online_mask(), "overlay");
    std::cout << "wrote " << prefix << "_trust.dot and " << prefix
              << "_overlay.dot\n";
  }
  return 0;
}
