#include "privacylink/transport.hpp"

#include <utility>

#include "common/check.hpp"

namespace ppo::privacylink {

Transport::Transport(sim::ShardedSimulator& sim, TransportOptions options,
                     Rng rng, std::function<bool(NodeId)> is_online,
                     std::size_t senders)
    : sim_(sim), options_(options), is_online_(std::move(is_online)) {
  PPO_CHECK_MSG(options_.min_latency >= 0.0 &&
                    options_.max_latency >= options_.min_latency,
                "invalid latency window");
  PPO_CHECK_MSG(static_cast<bool>(is_online_), "online oracle required");
  sender_rngs_.reserve(senders);
  for (std::size_t v = 0; v < senders; ++v)
    sender_rngs_.push_back(rng.split());
}

bool Transport::send(NodeId from, NodeId to, sim::EventFn on_deliver) {
  if (!is_online_(from)) return false;
  sent_.fetch_add(1, std::memory_order_relaxed);
  const double latency = sender_rngs_[from].uniform_double(
      options_.min_latency, options_.max_latency);
  sim_.schedule_for(to, latency, [this, to, fn = std::move(on_deliver)] {
    if (!is_online_(to)) return;  // link dark: the far end went offline
    delivered_.fetch_add(1, std::memory_order_relaxed);
    fn();
  });
  if (journal_ != nullptr)
    journal_->commit(sim_.now() + latency, sim_.last_ticket());
  return true;
}

void Transport::restore_delivery(NodeId to, double fire_time,
                                 sim::EventTicket ticket,
                                 sim::EventFn payload) {
  sim_.restore_event(fire_time, ticket, to,
                     [this, to, fn = std::move(payload)] {
                       if (!is_online_(to)) return;
                       delivered_.fetch_add(1, std::memory_order_relaxed);
                       if (fn) fn();
                     });
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
