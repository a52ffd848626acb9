// Group chat / micro-news on top of the overlay — one of the
// "high-level social applications" the paper positions above the
// overlay layer (§II): every post must eventually reach every member.
//
// Dissemination is two-tier:
//  - eager push: on first receipt a node forwards the post over all
//    its current overlay links (controlled flooding with duplicate
//    suppression) — fast paths for the online population;
//  - anti-entropy: each node periodically reconciles with one random
//    overlay peer using per-author version vectors — this is what
//    lets a member who was offline for hours catch up on rejoin.
//
// Payload privacy (end-to-end encryption among members, §II-C) is the
// application's concern and orthogonal to the mechanics simulated
// here; node identities appearing in this sim-level API are
// bookkeeping — on the wire a node only ever addresses its links.
//
// Runs at K = 1 only: the post store, the RNG and the latency stats
// are shared across members, so the simulator must have one shard.
// Each member's anti-entropy tick is an event of that member's, which
// schedules its successor. Application messages are bytes on the
// chat's own transport: a post, a version-vector request, or the
// posts a request was missing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "overlay/sharded_service.hpp"
#include "privacylink/transport.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::apps {

using graph::NodeId;

struct GroupChatOptions {
  /// Periods between a node's anti-entropy exchanges (> 0).
  double anti_entropy_period = 2.0;
  /// Link latency model for application traffic.
  privacylink::TransportOptions transport;
};

/// One post: (author, seq) is its globally unique id.
struct Post {
  NodeId author = 0;
  std::uint32_t seq = 0;
  sim::Time published = 0.0;
  std::string text;
};

class GroupChat final : public privacylink::LinkReceiver,
                        public sim::EventHandler {
 public:
  /// `sim` must have exactly one shard (see the header comment).
  GroupChat(sim::ShardedSimulator& sim,
            overlay::ShardedOverlayService& overlay,
            GroupChatOptions options, Rng rng);

  /// Starts the per-node anti-entropy ticks.
  void start();

  /// Publishes a post authored by `author` (must be online). Returns
  /// the post id (author, seq).
  std::pair<NodeId, std::uint32_t> publish(NodeId author, std::string text);

  // --- inspection ---
  /// Number of posts `node` has stored.
  std::size_t posts_held(NodeId node) const;
  bool has_post(NodeId node, NodeId author, std::uint32_t seq) const;
  /// Fraction of ALL members holding post (author, seq).
  double replication(NodeId author, std::uint32_t seq) const;
  std::uint32_t published_count(NodeId author) const;

  /// Delivery latency samples (publish -> first receipt), gathered
  /// over all (post, member) deliveries so far.
  const RunningStats& delivery_latency() const { return delivery_latency_; }
  std::uint64_t messages_sent() const { return transport_.messages_sent(); }
  std::uint64_t anti_entropy_exchanges() const { return exchanges_; }

  // --- privacylink::LinkReceiver: the chat's messages ---
  void receive(NodeId from, NodeId to,
               std::span<const std::uint8_t> message) override;
  bool decodable(std::span<const std::uint8_t> message) const override;

  // --- sim::EventHandler: one kind, a member's anti-entropy tick ---
  void fire(const sim::Event& event) override;
  std::uint32_t handler_tag() const override { return 0x43484154u; }

 private:
  struct AuthorLog {
    /// Posts by one author, keyed by seq.
    std::map<std::uint32_t, Post> posts;
    /// Highest seq such that all of 1..watermark are present.
    std::uint32_t watermark = 0;
  };
  struct MemberState {
    /// Sparse: only authors this member has posts from.
    std::map<NodeId, AuthorLog> by_author;
    std::size_t total = 0;
  };

  bool store(NodeId node, const Post& post);
  void eager_push(NodeId from, const Post& post);
  void deliver(NodeId node, const Post& post);
  void anti_entropy_tick(NodeId node);
  /// Responds to a version-vector request: ships every post the
  /// requester is missing below our knowledge.
  void serve_missing(NodeId server, NodeId requester,
                     const std::vector<std::uint32_t>& requester_watermarks);

  sim::ShardedSimulator& sim_;
  sim::HandlerId handler_;
  overlay::ShardedOverlayService& overlay_;
  GroupChatOptions options_;
  Rng rng_;
  privacylink::Transport transport_;
  std::vector<MemberState> members_;
  std::vector<std::uint32_t> next_seq_;
  RunningStats delivery_latency_;
  std::uint64_t exchanges_ = 0;
  bool started_ = false;
};

}  // namespace ppo::apps
