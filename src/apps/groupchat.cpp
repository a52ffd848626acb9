#include "apps/groupchat.hpp"

#include <algorithm>
#include <string_view>

#include "ckpt/io.hpp"
#include "common/check.hpp"

namespace ppo::apps {

namespace {

constexpr std::uint8_t kTick = 0;  // a member's anti-entropy tick

/// First byte of a chat message.
enum Message : std::uint8_t { kPost = 0, kWatermarks = 1, kMissing = 2 };

void write_post(ckpt::Writer& w, const Post& post) {
  w.u32(post.author);
  w.u32(post.seq);
  w.f64(post.published);
  w.str(post.text);
}

Post read_post(ckpt::Reader& r) {
  Post post;
  post.author = r.u32();
  post.seq = r.u32();
  post.published = r.f64();
  post.text = r.str();
  return post;
}

sim::Payload bytes_of(const ckpt::Writer& w) {
  const std::string& b = w.buffer();
  return sim::Payload(b.begin(), b.end());
}

}  // namespace

GroupChat::GroupChat(sim::ShardedSimulator& sim,
                     overlay::ShardedOverlayService& overlay,
                     GroupChatOptions options, Rng rng)
    : sim_(sim),
      handler_(sim.add_handler(*this)),
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
  transport_.set_receiver(*this);
}

void GroupChat::start() {
  PPO_CHECK_MSG(!started_, "group chat already started");
  started_ = true;
  // A tick schedules its successor, so a period of zero would loop at
  // one instant.
  PPO_CHECK_MSG(options_.anti_entropy_period > 0.0,
                "anti-entropy period must be positive");
  for (NodeId v = 0; v < members_.size(); ++v) {
    const double phase =
        rng_.uniform_double(0.0, options_.anti_entropy_period);
    sim_.schedule_for(v, phase, handler_, kTick);
  }
}

void GroupChat::fire(const sim::Event& event) {
  anti_entropy_tick(event.target);
  sim_.schedule_for(event.target, options_.anti_entropy_period, handler_,
                    kTick);
}

void GroupChat::receive(NodeId from, NodeId to,
                        std::span<const std::uint8_t> message) {
  ckpt::Reader r(std::string_view(
      reinterpret_cast<const char*>(message.data()), message.size()));
  switch (r.u8()) {
    case kPost:
      deliver(to, read_post(r));
      break;
    case kWatermarks: {
      std::vector<std::uint32_t> watermarks(members_.size());
      for (std::uint32_t& w : watermarks) w = r.u32();
      serve_missing(to, from, watermarks);
      break;
    }
    default:
      for (std::size_t n = r.size(); n > 0; --n) deliver(to, read_post(r));
      break;
  }
}

bool GroupChat::decodable(std::span<const std::uint8_t> /*message*/) const {
  return false;  // the chat is outside the checkpoint scope
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
  ckpt::Writer w;
  w.u8(kPost);
  write_post(w, post);
  for (const NodeId peer : overlay_.current_peers(from))
    transport_.send(from, peer, bytes_of(w));
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
  ckpt::Writer w;
  w.u8(kWatermarks);
  for (const std::uint32_t watermark : watermarks) w.u32(watermark);
  transport_.send(node, partner, bytes_of(w));
}

void GroupChat::serve_missing(
    NodeId server, NodeId requester,
    const std::vector<std::uint32_t>& requester_watermarks) {
  // Collect the missing posts in one response (a single link message;
  // delivered post-by-post so each post's first-receipt latency is
  // tracked individually).
  std::vector<const Post*> missing;
  for (const auto& [author, log] : members_[server].by_author) {
    const std::uint32_t watermark = requester_watermarks[author];
    for (auto it = log.posts.upper_bound(watermark); it != log.posts.end();
         ++it)
      missing.push_back(&it->second);
  }
  if (missing.empty()) return;
  ckpt::Writer w;
  w.u8(kMissing);
  w.size(missing.size());
  for (const Post* post : missing) write_post(w, *post);
  transport_.send(server, requester, bytes_of(w));
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
