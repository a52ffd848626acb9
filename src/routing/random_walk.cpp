#include "routing/random_walk.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace ppo::routing {

namespace {

/// True when `node` can complete delivery of `target`: it owns the
/// pseudonym or holds it among its sampled links.
bool holds_target(overlay::ShardedOverlayService& service, NodeId node,
                  PseudonymValue target) {
  const auto own = service.node(node).own_pseudonym();
  if (own && own->value == target) return true;
  const auto links = service.node(node).pseudonym_links();
  return std::binary_search(links.begin(), links.end(), target);
}

}  // namespace

WalkResult route_to_pseudonym(overlay::ShardedOverlayService& service,
                              NodeId source, PseudonymValue target,
                              const WalkOptions& options, Rng& rng) {
  PPO_CHECK_MSG(source < service.num_nodes(), "source out of range");
  PPO_CHECK_MSG(service.is_online(source), "source must be online");
  PPO_CHECK_MSG(options.ttl >= 1 && options.walkers >= 1,
                "ttl and walkers must be positive");

  // Span id: per-thread sequence — routes never nest, and a
  // thread-local keeps concurrent sweep shards race-free.
  static thread_local std::uint64_t route_seq = 0;
  const std::uint64_t span_id = ++route_seq;
  PPO_TRACE_SPAN_BEGIN(obs::TraceCategory::kRouting, "route_walk",
                       static_cast<std::uint32_t>(source), span_id);

  WalkResult result;
  const auto owner = [&]() -> std::optional<NodeId> {
    // Final-hop check: the pseudonym service resolves the link; the
    // owner must be online to accept (links dark otherwise).
    for (NodeId v = 0; v < service.num_nodes(); ++v) {
      const auto own = service.node(v).own_pseudonym();
      if (own && own->value == target) return v;
    }
    return std::nullopt;
  }();

  for (std::size_t w = 0; w < options.walkers; ++w) {
    NodeId current = source;
    double latency = 0.0;
    for (std::size_t hop = 0; hop <= options.ttl; ++hop) {
      if (holds_target(service, current, target)) {
        if (owner && service.is_online(*owner)) {
          // One more link hop to the owner unless we are the owner.
          std::size_t extra = 0;
          if (current != *owner) {
            ++result.messages;
            latency += rng.uniform_double(options.min_latency,
                                          options.max_latency);
            extra = 1;
          }
          if (!result.delivered) {
            result.delivered = true;
            result.hops = hop + extra;
            result.latency = latency;
          }
        }
        break;  // this walker ends either way (holder reached)
      }
      if (hop == options.ttl) break;  // TTL exhausted

      // Step to a random ONLINE neighbor over current links.
      std::vector<NodeId> peers =
          options.trusted_links_only
              ? service.node(current).trusted_links()
              : service.current_peers(current);
      std::erase_if(peers,
                    [&](NodeId p) { return !service.is_online(p); });
      if (peers.empty()) break;  // stranded
      current = peers[rng.uniform_u64(peers.size())];
      ++result.messages;
      latency +=
          rng.uniform_double(options.min_latency, options.max_latency);
    }
  }
  PPO_TRACE_SPAN_END(
      obs::TraceCategory::kRouting, "route_walk",
      static_cast<std::uint32_t>(source), span_id,
      (obs::TraceArg{"delivered", result.delivered ? 1.0 : 0.0}),
      (obs::TraceArg{"messages", double(result.messages)}));
  return result;
}

}  // namespace ppo::routing
