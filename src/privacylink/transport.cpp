#include "privacylink/transport.hpp"

#include <utility>

#include "common/check.hpp"

namespace ppo::privacylink {

namespace {
constexpr std::uint8_t kArrival = 0;  // a = sender, payload = message
}  // namespace

Transport::Transport(sim::ShardedSimulator& sim, TransportOptions options,
                     Rng rng, std::function<bool(NodeId)> is_online,
                     std::size_t senders)
    : sim_(sim),
      handler_(sim.add_handler(*this)),
      options_(options),
      is_online_(std::move(is_online)) {
  PPO_CHECK_MSG(options_.min_latency >= 0.0 &&
                    options_.max_latency >= options_.min_latency,
                "invalid latency window");
  PPO_CHECK_MSG(static_cast<bool>(is_online_), "online oracle required");
  sender_rngs_.reserve(senders);
  for (std::size_t v = 0; v < senders; ++v)
    sender_rngs_.push_back(rng.split());
}

bool Transport::send(NodeId from, NodeId to, sim::Payload message) {
  PPO_CHECK_MSG(receiver_ != nullptr, "transport has no receiver");
  if (!is_online_(from)) return false;
  sent_.fetch_add(1, std::memory_order_relaxed);
  const double latency = sender_rngs_[from].uniform_double(
      options_.min_latency, options_.max_latency);
  sim_.schedule_for(to, latency, handler_, kArrival, from, 0,
                    std::move(message));
  return true;
}

void Transport::fire(const sim::Event& event) {
  const auto to = static_cast<NodeId>(event.target);
  if (!is_online_(to)) return;  // link dark: the far end went offline
  delivered_.fetch_add(1, std::memory_order_relaxed);
  receiver_->receive(static_cast<NodeId>(event.a), to, event.payload);
}

bool Transport::accepts(const sim::Event& event) const {
  return event.kind == kArrival && event.a < sender_rngs_.size() &&
         event.b == 0 && receiver_->decodable(event.payload);
}

void Transport::save_state(ckpt::Writer& w) const {
  w.tag(0x5452534Eu);  // 'TRSN'
  for (const Rng& r : sender_rngs_) w.rng(r);
  w.u64(sent_.load(std::memory_order_relaxed));
  w.u64(delivered_.load(std::memory_order_relaxed));
}

void Transport::load_state(ckpt::Reader& r) {
  r.tag(0x5452534Eu);
  for (Rng& s : sender_rngs_) s = r.rng();
  sent_.store(r.u64(), std::memory_order_relaxed);
  delivered_.store(r.u64(), std::memory_order_relaxed);
}

}  // namespace ppo::privacylink
