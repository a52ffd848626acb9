#include "dissemination/broadcast.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::dissem {

namespace {

constexpr std::uint8_t kArrival = 0;  // a = hops travelled

struct BroadcastState final : sim::EventHandler {
  const graph::Graph& g;
  const graph::NodeMask& online;
  const BroadcastOptions& options;
  Rng& rng;
  /// One shard: every forward draws from the caller's one `rng`.
  sim::ShardedSimulator sim;
  sim::HandlerId handler;

  std::vector<char> received;
  BroadcastResult result;
  RunningStats latency;

  BroadcastState(const graph::Graph& graph, const graph::NodeMask& mask,
                 const BroadcastOptions& opts, Rng& r)
      : g(graph), online(mask), options(opts), rng(r),
        sim({.num_actors = graph.num_nodes()}),
        handler(sim.add_handler(*this)),
        received(graph.num_nodes(), 0) {}

  void fire(const sim::Event& event) override {
    deliver(event.target, static_cast<std::uint32_t>(event.a));
  }
  std::uint32_t handler_tag() const override { return 0x464C4F44u; }

  void forward_from(NodeId node, std::uint32_t hops) {
    if (options.max_hops >= 0 &&
        hops >= static_cast<std::uint32_t>(options.max_hops))
      return;
    const auto nbrs = g.neighbors(node);
    std::vector<NodeId> targets(nbrs.begin(), nbrs.end());
    if (options.fanout > 0 && targets.size() > options.fanout)
      targets = rng.sample(targets, options.fanout);
    for (const NodeId next : targets) {
      ++result.messages_sent;
      const double latency_draw =
          rng.uniform_double(options.min_latency, options.max_latency);
      sim.schedule_for(next, latency_draw, handler, kArrival, hops + 1);
    }
  }

  void deliver(NodeId node, std::uint32_t hops) {
    if (!online.contains(node)) return;  // offline endpoint drops it
    if (received[node]) return;          // duplicate suppression
    received[node] = 1;
    ++result.reached;
    latency.add(sim.now());
    result.max_hops_used = std::max(result.max_hops_used, hops);
    forward_from(node, hops);
  }
};

}  // namespace

BroadcastResult broadcast(const graph::Graph& g,
                          const graph::NodeMask& online, NodeId source,
                          const BroadcastOptions& options, Rng& rng) {
  PPO_CHECK_MSG(source < g.num_nodes(), "source out of range");
  PPO_CHECK_MSG(online.contains(source), "source must be online");

  BroadcastState state(g, online, options, rng);
  state.result.online_nodes = online.count(g.num_nodes());

  state.received[source] = 1;
  state.result.reached = 1;
  state.forward_from(source, 0);
  state.sim.run_all();

  state.result.coverage =
      state.result.online_nodes == 0
          ? 0.0
          : static_cast<double>(state.result.reached) /
                static_cast<double>(state.result.online_nodes);
  state.result.mean_latency = state.latency.mean();
  state.result.max_latency = state.latency.max();
  return state.result;
}

}  // namespace ppo::dissem
