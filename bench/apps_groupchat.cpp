// Application workload (the paper's §II motivating apps): a group
// chat running on top of the maintained overlay under churn. Posts
// flood eagerly to the online population; members who were offline
// catch up through periodic anti-entropy when they rejoin.
//
// Reported: delivery latency to the concurrently-online population,
// eventual replication (including members offline at publish time),
// and message cost, across availabilities.
#include <iostream>

#include "apps/groupchat.hpp"
#include "bench_common.hpp"
#include "experiments/scenario.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Application", "group chat over the overlay under churn",
                      bench);

  const graph::Graph& trust = bench.trust_graph(0.5);
  const auto posts = static_cast<std::size_t>(cli.get_int("posts", 40));

  TextTable table({"alpha", "posts", "mean latency", "p95-ish (max)",
                   "replication@+150sp", "msgs/post/member",
                   "anti-entropy exchanges"});
  for (const double alpha : {0.25, 0.5, 0.75}) {
    experiments::ChurnSpec churn;
    churn.alpha = alpha;
    const auto model = churn.make();
    sim::ShardedSimulator sim(
        overlay::simulator_options({}, trust.num_nodes()));
    overlay::ShardedOverlayService service(
        sim, trust, *model, {}, 7 ^ static_cast<std::uint64_t>(alpha * 512));
    apps::GroupChat chat(sim, service, {}, Rng(11));
    service.start();
    chat.start();
    sim.run_until(300.0);  // overlay converged

    Rng rng(13);
    std::vector<std::pair<graph::NodeId, std::uint32_t>> ids;
    for (std::size_t p = 0; p < posts; ++p) {
      graph::NodeId author;
      do {
        author = static_cast<graph::NodeId>(
            rng.uniform_u64(trust.num_nodes()));
      } while (!service.is_online(author));
      ids.push_back(chat.publish(author, "post"));
      sim.run_until(sim.now() + 2.0);
    }
    sim.run_until(sim.now() + 150.0);  // catch-up window

    RunningStats replication;
    for (const auto& [author, seq] : ids)
      replication.add(chat.replication(author, seq));

    const double msgs_per_post_member =
        static_cast<double>(chat.messages_sent()) /
        static_cast<double>(posts) /
        static_cast<double>(trust.num_nodes());
    table.add_row({TextTable::num(alpha), std::to_string(posts),
                   TextTable::num(chat.delivery_latency().mean(), 3),
                   TextTable::num(chat.delivery_latency().max(), 2),
                   TextTable::num(replication.mean(), 3),
                   TextTable::num(msgs_per_post_member, 2),
                   std::to_string(chat.anti_entropy_exchanges())});
  }
  table.print(std::cout);
  std::cout << "\n(replication counts ALL members, incl. those offline at "
               "publish time — anti-entropy back-fills them on rejoin)\n";
  return 0;
}
