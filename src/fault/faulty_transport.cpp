#include "fault/faulty_transport.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace ppo::fault {

namespace {

constexpr std::uint8_t kDelayed = 0;  // a = sender, payload = message
/// Trailer a copy carries through the inner transport: its extra delay.
constexpr std::size_t kTrailer = sizeof(double);

}  // namespace

FaultyTransport::FaultyTransport(sim::ShardedSimulator& sim,
                                 privacylink::LinkTransport& inner,
                                 FaultPlan plan, std::size_t num_nodes)
    : sim_(sim),
      handler_(sim.add_handler(*this)),
      inner_(inner),
      plan_(std::move(plan)),
      link_counts_(num_nodes) {
  plan_.validate();
  PPO_CHECK_MSG(num_nodes > 0, "fault streams need the node count");
  inner_.set_receiver(*this);
  for (const LinkDropOverride& o : plan_.link_drop_overrides)
    drop_overrides_[link_key(o.from, o.to)] = o.drop_prob;
  if (plan_.gilbert_elliott.enabled()) {
    // Materialize the whole burst chain up front from its own derived
    // stream: fate draws never interleave with the chain's, and state
    // queries are read-only (K-invariant).
    const GilbertElliottProfile& ge = plan_.gilbert_elliott;
    const auto steps =
        static_cast<std::size_t>(ge.horizon / ge.step) + 1;
    Rng chain_rng(derive_seed(plan_.seed, 0x6E11ULL));
    ge_bad_.reserve(steps);
    bool bad = false;
    for (std::size_t i = 0; i < steps; ++i) {
      ge_bad_.push_back(bad ? 1 : 0);
      const double flip = bad ? ge.p_bad_to_good : ge.p_good_to_bad;
      if (flip > 0.0 && chain_rng.bernoulli(flip)) bad = !bad;
    }
  }
  partition_masks_.reserve(plan_.partitions.size());
  for (const Partition& p : plan_.partitions) {
    const graph::NodeId max_id =
        *std::max_element(p.group.begin(), p.group.end());
    std::vector<char> mask(static_cast<std::size_t>(max_id) + 1, 0);
    for (const graph::NodeId v : p.group) mask[v] = 1;
    partition_masks_.push_back(std::move(mask));
  }
}

FaultyTransport::Counters FaultyTransport::counters() const {
  Counters out;
  out.injected_drops = counters_.injected_drops.load(std::memory_order_relaxed);
  out.outage_drops = counters_.outage_drops.load(std::memory_order_relaxed);
  out.partition_drops =
      counters_.partition_drops.load(std::memory_order_relaxed);
  out.duplicates = counters_.duplicates.load(std::memory_order_relaxed);
  out.delayed = counters_.delayed.load(std::memory_order_relaxed);
  return out;
}

bool FaultyTransport::in_partition_group(std::size_t partition,
                                         graph::NodeId v) const {
  const std::vector<char>& mask = partition_masks_[partition];
  return v < mask.size() && mask[v] != 0;
}

double FaultyTransport::drop_probability_on(graph::NodeId from,
                                            graph::NodeId to) const {
  const auto it = drop_overrides_.find(link_key(from, to));
  return it != drop_overrides_.end() ? it->second : plan_.drop_probability;
}

double FaultyTransport::profile_extra_drop(double t) const {
  double extra = 0.0;
  if (!ge_bad_.empty()) {
    const GilbertElliottProfile& ge = plan_.gilbert_elliott;
    auto index = static_cast<std::size_t>(std::max(t, 0.0) / ge.step);
    index = std::min(index, ge_bad_.size() - 1);
    extra += ge_bad_[index] != 0 ? ge.bad_drop : ge.good_drop;
  }
  if (plan_.diurnal.enabled()) {
    const DiurnalProfile& d = plan_.diurnal;
    constexpr double kTwoPi = 6.283185307179586;
    extra += d.amplitude * 0.5 *
             (1.0 + std::sin(kTwoPi * (t + d.phase) / d.period));
  }
  return extra;
}

FaultyTransport::Fate FaultyTransport::decide_fate(graph::NodeId from,
                                                   graph::NodeId to) {
  Fate fate;
  const double now = sim_.now();
  if (!plan_.link_outages.empty() && plan_.outage_at(now)) {
    fate.drop = true;
    fate.drop_counter = &counters_.outage_drops;
    return fate;
  }
  for (std::size_t i = 0; i < plan_.partitions.size(); ++i) {
    if (!plan_.partitions[i].window.contains(now)) continue;
    if (in_partition_group(i, from) != in_partition_group(i, to)) {
      fate.drop = true;
      fate.drop_counter = &counters_.partition_drops;
      return fate;
    }
  }
  // The decision stream derives from this link's own message index, so
  // the pattern is independent of how other links' traffic interleaves.
  Rng rng = next_link_rng(from, to);
  // Every draw below is guarded so an inert plan never touches the
  // RNG (part of the zero-fault no-op guarantee).
  const double drop_prob = std::min(
      1.0, drop_probability_on(from, to) + profile_extra_drop(now));
  if (drop_prob > 0.0 && rng.bernoulli(drop_prob)) {
    fate.drop = true;
    fate.drop_counter = &counters_.injected_drops;
    return fate;
  }
  if (plan_.jitter_max > 0.0)
    fate.extra_delay += rng.uniform_double(plan_.jitter_min, plan_.jitter_max);
  if (plan_.reorder_probability > 0.0 &&
      rng.bernoulli(plan_.reorder_probability))
    fate.extra_delay +=
        rng.uniform_double(plan_.reorder_min_delay, plan_.reorder_max_delay);
  return fate;
}

Rng FaultyTransport::next_link_rng(graph::NodeId from, graph::NodeId to) {
  const std::uint64_t index = link_counts_[from][to]++;
  return Rng(derive_seed(plan_.seed ^ 0xFA017ULL, from, to, index));
}

bool FaultyTransport::send_copy(graph::NodeId from, graph::NodeId to,
                                sim::Payload message, const Fate& fate) {
  bool accepted;
  if (fate.drop) {
    // The message leaves the sender and dies in the network: the inner
    // transport still does the sender gating and its own accounting,
    // but nothing ever reaches the destination handler.
    accepted = inner_.send(from, to, {});
    if (accepted && fate.drop_counter != nullptr) {
      fate.drop_counter->fetch_add(1, std::memory_order_relaxed);
      PPO_TRACE_EVENT(ppo::obs::TraceCategory::kTransport, "drop", from,
                      (ppo::obs::TraceArg{"to", static_cast<double>(to)}));
    }
  } else {
    const auto* delay = reinterpret_cast<const std::uint8_t*>(&fate.extra_delay);
    message.insert(message.end(), delay, delay + kTrailer);
    accepted = inner_.send(from, to, std::move(message));
    if (accepted && fate.extra_delay > 0.0)
      counters_.delayed.fetch_add(1, std::memory_order_relaxed);
  }
  if (accepted) sent_.fetch_add(1, std::memory_order_relaxed);
  return accepted;
}

void FaultyTransport::receive(graph::NodeId from, graph::NodeId to,
                              std::span<const std::uint8_t> message) {
  if (message.empty()) return;  // a dropped copy
  double delay = 0.0;
  std::memcpy(&delay, message.data() + message.size() - kTrailer, kTrailer);
  message = message.first(message.size() - kTrailer);
  if (delay > 0.0) {
    // The online gate applied at arrival; the held-back copy reaches
    // the receiver after its delay whatever happens meanwhile.
    sim_.schedule_after(delay, handler_, kDelayed, from, 0,
                        sim::Payload(message.begin(), message.end()));
  } else {
    deliver(from, to, message);
  }
}

bool FaultyTransport::decodable(std::span<const std::uint8_t> message) const {
  if (message.empty()) return true;
  if (message.size() < kTrailer) return false;
  double delay = 0.0;
  std::memcpy(&delay, message.data() + message.size() - kTrailer, kTrailer);
  return std::isfinite(delay) && delay >= 0.0 &&
         receiver_->decodable(message.first(message.size() - kTrailer));
}

void FaultyTransport::fire(const sim::Event& event) {
  deliver(static_cast<graph::NodeId>(event.a), event.target, event.payload);
}

bool FaultyTransport::accepts(const sim::Event& event) const {
  return event.kind == kDelayed && event.a < link_counts_.size() &&
         event.b == 0 && receiver_->decodable(event.payload);
}

void FaultyTransport::deliver(graph::NodeId from, graph::NodeId to,
                              std::span<const std::uint8_t> message) {
  delivered_.fetch_add(1, std::memory_order_relaxed);
  receiver_->receive(from, to, message);
}

void FaultyTransport::save_state(ckpt::Writer& w) const {
  w.tag(0x464C5459u);  // 'FLTY'
  for (const auto& per_sender : link_counts_) {
    // unordered_map iteration order is not deterministic: serialize
    // sorted by destination so identical states write identical bytes.
    std::vector<std::pair<graph::NodeId, std::uint64_t>> sorted(
        per_sender.begin(), per_sender.end());
    std::sort(sorted.begin(), sorted.end());
    w.size(sorted.size());
    for (const auto& [to, count] : sorted) {
      w.u32(to);
      w.u64(count);
    }
  }
  w.u64(sent_.load(std::memory_order_relaxed));
  w.u64(delivered_.load(std::memory_order_relaxed));
  w.u64(counters_.injected_drops.load(std::memory_order_relaxed));
  w.u64(counters_.outage_drops.load(std::memory_order_relaxed));
  w.u64(counters_.partition_drops.load(std::memory_order_relaxed));
  w.u64(counters_.duplicates.load(std::memory_order_relaxed));
  w.u64(counters_.delayed.load(std::memory_order_relaxed));
}

void FaultyTransport::load_state(ckpt::Reader& r) {
  r.tag(0x464C5459u);
  for (auto& per_sender : link_counts_) {
    per_sender.clear();
    const std::size_t n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
      const graph::NodeId to = r.u32();
      per_sender[to] = r.u64();
    }
  }
  sent_.store(r.u64(), std::memory_order_relaxed);
  delivered_.store(r.u64(), std::memory_order_relaxed);
  counters_.injected_drops.store(r.u64(), std::memory_order_relaxed);
  counters_.outage_drops.store(r.u64(), std::memory_order_relaxed);
  counters_.partition_drops.store(r.u64(), std::memory_order_relaxed);
  counters_.duplicates.store(r.u64(), std::memory_order_relaxed);
  counters_.delayed.store(r.u64(), std::memory_order_relaxed);
}

bool FaultyTransport::send(graph::NodeId from, graph::NodeId to,
                           sim::Payload message) {
  PPO_CHECK_MSG(receiver_ != nullptr, "transport has no receiver");
  const Fate fate = decide_fate(from, to);
  // A duplicate travels with its own bytes.
  sim::Payload spare;
  if (plan_.duplicate_probability > 0.0) spare = message;
  const bool accepted = send_copy(from, to, std::move(message), fate);
  if (accepted && plan_.duplicate_probability > 0.0) {
    // The duplication decision takes a fresh per-link index, like the
    // fates.
    if (next_link_rng(from, to).bernoulli(plan_.duplicate_probability)) {
      counters_.duplicates.fetch_add(1, std::memory_order_relaxed);
      // The copy traverses the network independently: own loss and
      // delay draws, and it counts as one more message on the wire.
      send_copy(from, to, std::move(spare), decide_fate(from, to));
    }
  }
  return accepted;
}

}  // namespace ppo::fault
