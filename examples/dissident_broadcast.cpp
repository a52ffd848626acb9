// Scenario from the paper's introduction: a group of dissidents wants
// to broadcast messages without a central service. Their trust graph
// is sparse (each member knows few others). Under churn, messages
// flooded over trusted links strand a large part of the group; over
// the maintained overlay they reach (nearly) everyone, faster.
//
//   ./dissident_broadcast [--members=600] [--alpha=0.5] [--messages=30]
#include <iostream>

#include "churn/churn_model.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "dissemination/broadcast.hpp"
#include "graph/sampling.hpp"
#include "graph/socialgen.hpp"
#include "overlay/sharded_service.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  const auto members = static_cast<std::size_t>(cli.get_int("members", 600));
  const double alpha = cli.get_double("alpha", 0.5);
  const auto messages = static_cast<std::size_t>(cli.get_int("messages", 30));

  // Invitation-grown group: f = 0.3 models cautious invitations (each
  // member brings only a few contacts) -> a sparse trust graph.
  Rng rng(13);
  graph::SocialGraphOptions social;
  social.num_nodes = 20'000;
  const graph::Graph base = graph::synthetic_social_graph(social, rng);
  const graph::Graph trust = graph::invitation_sample(
      base, {.target_size = members, .f = 0.3}, rng);
  std::cout << "dissident group: " << members << " members, "
            << trust.num_edges() << " trust edges, availability " << alpha
            << "\n\n";

  const auto churn = churn::ExponentialChurn::from_availability(alpha, 30.0);
  sim::ShardedSimulator sim(overlay::simulator_options({}, trust.num_nodes()));
  overlay::ShardedOverlayService service(sim, trust, churn, {}, rng.next_u64());
  service.start();
  sim.run_until(300.0);  // let the overlay converge

  graph::Graph overlay = service.overlay_snapshot();
  const auto& online = service.online_mask();

  TextTable table({"graph", "coverage", "mean latency", "max hops",
                   "messages per broadcast"});
  Rng brng(29);
  for (const bool use_overlay : {false, true}) {
    const graph::Graph& g = use_overlay ? overlay : trust;
    RunningStats coverage, latency, hops, cost;
    std::size_t sent = 0;
    for (std::size_t m = 0; m < messages; ++m) {
      // A random online member speaks up.
      graph::NodeId source;
      do {
        source = static_cast<graph::NodeId>(brng.uniform_u64(members));
      } while (!online.contains(source));
      const auto result = dissem::broadcast(g, online, source, {}, brng);
      coverage.add(result.coverage);
      latency.add(result.mean_latency);
      hops.add(result.max_hops_used);
      cost.add(static_cast<double>(result.messages_sent));
      ++sent;
    }
    (void)sent;
    table.add_row({use_overlay ? "privacy-preserving overlay" : "trust graph",
                   TextTable::num(coverage.mean(), 3),
                   TextTable::num(latency.mean(), 3),
                   TextTable::num(hops.mean(), 1),
                   TextTable::num(cost.mean(), 0)});
  }
  table.print(std::cout);
  std::cout << "\n(coverage = fraction of ONLINE members reached; a member "
               "unreached on the trust graph is cut off from the group)\n";
  return 0;
}
