// Interactive-style walkthrough of the group-chat application layer:
// three members post; one of them is offline during a post and
// catches up via anti-entropy after rejoining.
//
//   ./group_chat [--members=120] [--alpha=0.6]
#include <iostream>

#include "apps/groupchat.hpp"
#include "churn/churn_model.hpp"
#include "common/cli.hpp"
#include "graph/sampling.hpp"
#include "graph/socialgen.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  const auto members = static_cast<std::size_t>(cli.get_int("members", 120));
  const double alpha = cli.get_double("alpha", 0.6);

  Rng rng(31);
  graph::SocialGraphOptions social;
  social.num_nodes = 20'000;
  const graph::Graph base = graph::synthetic_social_graph(social, rng);
  const graph::Graph trust = graph::invitation_sample(
      base, {.target_size = members, .f = 0.5}, rng);

  const auto churn = churn::ExponentialChurn::from_availability(alpha, 30.0);
  sim::ShardedSimulator sim(overlay::simulator_options({}, trust.num_nodes()));
  overlay::ShardedOverlayService service(sim, trust, churn, {}, rng.next_u64());
  apps::GroupChat chat(sim, service, {}, rng.split());
  service.start();
  chat.start();

  std::cout << "group of " << members << " members, availability " << alpha
            << "; warming the overlay up...\n";
  sim.run_until(200.0);

  const auto pick_online = [&](graph::NodeId avoid) {
    graph::NodeId v;
    Rng r(rng.next_u64());
    do {
      v = static_cast<graph::NodeId>(r.uniform_u64(members));
    } while (!service.is_online(v) || v == avoid);
    return v;
  };

  const graph::NodeId alice = pick_online(members);
  const graph::NodeId bob = pick_online(alice);

  auto [a1_author, a1_seq] = chat.publish(alice, "anyone tried the new med?");
  sim.run_until(sim.now() + 3.0);
  std::cout << "t=" << sim.now() << "  member#" << alice
            << " posted; replicated to "
            << chat.replication(a1_author, a1_seq) * 100 << "% of the group\n";

  // Bob drops off the network; the conversation continues without him.
  service.churn_driver().fail_permanently(bob);
  auto [b_author, b_seq] =
      chat.publish(pick_online(bob), "yes — works, mild side effects");
  sim.run_until(sim.now() + 5.0);
  std::cout << "t=" << sim.now() << "  member#" << bob
            << " is offline and has the reply: " << std::boolalpha
            << chat.has_post(bob, b_author, b_seq) << "\n";

  // He returns: anti-entropy back-fills everything he missed.
  service.churn_driver().revive(bob);
  sim.run_until(sim.now() + 15.0);
  std::cout << "t=" << sim.now() << "  member#" << bob
            << " rejoined and has the reply: "
            << chat.has_post(bob, b_author, b_seq) << "\n";

  std::cout << "\ndelivery latency: mean "
            << chat.delivery_latency().mean() << " periods over "
            << chat.delivery_latency().count() << " deliveries; "
            << chat.messages_sent() << " link messages total\n";
  return 0;
}
