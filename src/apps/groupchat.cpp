#include "apps/groupchat.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ppo::apps {

GroupChat::GroupChat(sim::ShardedSimulator& sim,
                     overlay::ShardedOverlayService& overlay,
                     GroupChatOptions options, Rng rng)
    : sim_(sim),
      overlay_(overlay),
      options_(options),
      rng_(rng),
      transport_(sim, options.transport, rng_.split(),
                 [this](NodeId v) { return overlay_.is_online(v); },
                 overlay.num_nodes()),
      members_(overlay.num_nodes()),
      next_seq_(overlay.num_nodes(), 0) {
  PPO_CHECK_MSG(sim.num_shards() == 1,
                "group chat shares its post store across members: K = 1 only");
}

void GroupChat::start() {
  PPO_CHECK_MSG(!started_, "group chat already started");
  started_ = true;
  timers_.reserve(members_.size());
  for (NodeId v = 0; v < members_.size(); ++v) {
    const double phase =
        rng_.uniform_double(0.0, options_.anti_entropy_period);
    timers_.push_back(sim::PeriodicTask::start(
        sim_, phase, options_.anti_entropy_period,
        [this, v] { anti_entropy_tick(v); }, v));
  }
}

std::pair<NodeId, std::uint32_t> GroupChat::publish(NodeId author,
                                                    std::string text) {
  PPO_CHECK_MSG(author < members_.size(), "author out of range");
  PPO_CHECK_MSG(overlay_.is_online(author), "author must be online");
  Post post;
  post.author = author;
  post.seq = ++next_seq_[author];
  post.published = sim_.now();
  post.text = std::move(text);
  store(author, post);
  eager_push(author, post);
  return {author, post.seq};
}

bool GroupChat::store(NodeId node, const Post& post) {
  AuthorLog& log = members_[node].by_author[post.author];
  if (!log.posts.emplace(post.seq, post).second) return false;
  ++members_[node].total;
  while (log.posts.count(log.watermark + 1) > 0) ++log.watermark;
  return true;
}

void GroupChat::deliver(NodeId node, const Post& post) {
  if (!store(node, post)) return;  // duplicate
  delivery_latency_.add(sim_.now() - post.published);
  eager_push(node, post);
}

void GroupChat::eager_push(NodeId from, const Post& post) {
  for (const NodeId peer : overlay_.current_peers(from)) {
    transport_.send(from, peer,
                    [this, peer, post] { deliver(peer, post); });
  }
}

void GroupChat::anti_entropy_tick(NodeId node) {
  if (!overlay_.is_online(node)) return;
  const auto peers = overlay_.current_peers(node);
  if (peers.empty()) return;
  const NodeId partner = peers[rng_.uniform_u64(peers.size())];

  // Ship our per-author watermarks; the partner responds with
  // everything above them that it knows.
  std::vector<std::uint32_t> watermarks(members_.size(), 0);
  for (const auto& [author, log] : members_[node].by_author)
    watermarks[author] = log.watermark;
  ++exchanges_;
  transport_.send(node, partner,
                  [this, partner, node, w = std::move(watermarks)] {
                    serve_missing(partner, node, w);
                  });
}

void GroupChat::serve_missing(
    NodeId server, NodeId requester,
    const std::vector<std::uint32_t>& requester_watermarks) {
  // Collect the missing posts in one response (a single link message
  // in a real deployment; delivered post-by-post here so each post's
  // first-receipt latency is tracked individually).
  std::vector<Post> missing;
  for (const auto& [author, log] : members_[server].by_author) {
    const std::uint32_t watermark = requester_watermarks[author];
    for (auto it = log.posts.upper_bound(watermark); it != log.posts.end();
         ++it)
      missing.push_back(it->second);
  }
  if (missing.empty()) return;
  transport_.send(server, requester,
                  [this, requester, posts = std::move(missing)] {
                    for (const Post& post : posts) deliver(requester, post);
                  });
}

std::size_t GroupChat::posts_held(NodeId node) const {
  PPO_CHECK_MSG(node < members_.size(), "node out of range");
  return members_[node].total;
}

bool GroupChat::has_post(NodeId node, NodeId author,
                         std::uint32_t seq) const {
  PPO_CHECK_MSG(node < members_.size() && author < members_.size(),
                "node out of range");
  const auto it = members_[node].by_author.find(author);
  return it != members_[node].by_author.end() &&
         it->second.posts.count(seq) > 0;
}

double GroupChat::replication(NodeId author, std::uint32_t seq) const {
  std::size_t holders = 0;
  for (NodeId v = 0; v < members_.size(); ++v)
    holders += has_post(v, author, seq);
  return static_cast<double>(holders) / static_cast<double>(members_.size());
}

std::uint32_t GroupChat::published_count(NodeId author) const {
  PPO_CHECK_MSG(author < members_.size(), "author out of range");
  return next_seq_[author];
}

}  // namespace ppo::apps
