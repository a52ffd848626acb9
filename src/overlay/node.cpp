#include "overlay/node.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace ppo::overlay {

namespace {

/// Globally unique async-span id for one exchange attempt: node ids
/// and per-node exchange counters are both K-invariant, so the trace
/// pairs identically for every shard count.
std::uint64_t exchange_span_id(NodeId node, std::uint64_t exchange_id) {
  return (static_cast<std::uint64_t>(node) << 32) | (exchange_id & 0xFFFFFFFF);
}

/// S = max(min_slots, target - trust_degree): hubs already have their
/// connectivity and get few or no pseudonym slots (§III-D).
std::size_t slots_for(const OverlayParams& params, std::size_t trust_degree) {
  const std::size_t wanted = params.target_links > trust_degree
                                 ? params.target_links - trust_degree
                                 : 0;
  return std::max(params.min_slots, wanted);
}

}  // namespace

OverlayNode::OverlayNode(NodeId id, const OverlayParams& params,
                         std::vector<NodeId> trusted_neighbors,
                         NodeEnvironment& env, Rng rng)
    : OverlayNode(nullptr, id, params, std::move(trusted_neighbors), env,
                  rng) {}

OverlayNode::OverlayNode(Arena& arena, NodeId id, const OverlayParams& params,
                         std::vector<NodeId> trusted_neighbors,
                         NodeEnvironment& env, Rng rng)
    : OverlayNode(&arena, id, params, std::move(trusted_neighbors), env,
                  rng) {}

OverlayNode::OverlayNode(Arena* arena, NodeId id, const OverlayParams& params,
                         std::vector<NodeId> trusted_neighbors,
                         NodeEnvironment& env, Rng rng)
    : id_(id),
      params_(params),
      trusted_(std::move(trusted_neighbors)),
      env_(env),
      rng_(rng),
      cache_(arena ? PseudonymCache(*arena, params.cache_size)
                   : PseudonymCache(params.cache_size)),
      sampler_(arena
                   ? SlotSampler(*arena, slots_for(params, trusted_.size()),
                                 params.pseudonym_bits, rng_,
                                 params.sampler_min_dwell)
                   : SlotSampler(slots_for(params, trusted_.size()),
                                 params.pseudonym_bits, rng_,
                                 params.sampler_min_dwell)),
      pending_sent_(arena
                        ? FixedBlock<PseudonymRecord>(*arena,
                                                      params.shuffle_length)
                        : FixedBlock<PseudonymRecord>(params.shuffle_length)),
      offline_ewma_(params.pseudonym_lifetime /
                    std::max(params.adaptive_lifetime_factor, 1e-9)) {
  PPO_CHECK_MSG(params.shuffle_length >= 1, "shuffle_length must be >= 1");
}

double OverlayNode::current_lifetime() const {
  if (!params_.adaptive_lifetime) return params_.pseudonym_lifetime;
  const double adapted = params_.adaptive_lifetime_factor * offline_ewma_;
  return std::clamp(adapted, params_.adaptive_min_lifetime,
                    params_.adaptive_max_lifetime);
}

void OverlayNode::ensure_own_pseudonym() {
  const sim::Time now = env_.now();
  if (own_ && own_->valid_at(now)) return;
  own_ = env_.mint_pseudonym(id_, current_lifetime());
  own_history_.push_back(own_->value);
  // Only recent values can still circulate (older ones expired), so
  // the self-check list stays tiny.
  if (own_history_.size() > 4)
    own_history_.erase(own_history_.begin());
  schedule_renewal_alarm();
}

void OverlayNode::schedule_renewal_alarm() {
  PPO_CHECK(own_.has_value());
  const std::uint64_t epoch = ++renewal_epoch_;
  const double delay = std::max(0.0, own_->expiry - env_.now());
  // Tiny slack so the alarm fires strictly after the expiry instant.
  env_.schedule_timer(id_, delay + 1e-9, NodeTimer::kRenewal, epoch);
}

void OverlayNode::fire_timer(NodeTimer timer, std::uint64_t key) {
  if (timer == NodeTimer::kExchangeTimeout) {
    handle_exchange_timeout(key);
    return;
  }
  if (key != renewal_epoch_) return;  // superseded by a newer mint
  if (online_) ensure_own_pseudonym();
  // Offline: handle_online re-mints on rejoin.
}

void OverlayNode::handle_online() {
  const sim::Time now = env_.now();
  const bool rejoining = ever_started_;
  online_ = true;
  if (rejoining && params_.adaptive_lifetime) {
    // Fold the just-finished offline period into the estimate the
    // adaptive lifetime is based on.
    const double duration = now - offline_since_;
    offline_ewma_ = 0.7 * offline_ewma_ + 0.3 * duration;
  }
  ever_started_ = true;
  // Pseudonyms that expired while away vanish; their slots become
  // expiry-vacated so refills count as replacements (§IV-C overhead).
  cache_.purge_expired(now);
  sampler_.purge_expired(now);
  ensure_own_pseudonym();
  if (params_.shuffle_on_rejoin && rejoining) {
    // Kick off an exchange right away (counted like a periodic tick);
    // the periodic schedule continues independently.
    shuffle_tick();
  }
}

void OverlayNode::handle_offline() {
  online_ = false;
  offline_since_ = env_.now();
  // All other state is retained (§II-D): links revive on rejoin.
}

std::vector<PseudonymRecord> OverlayNode::compose_shuffle_set() {
  // Own pseudonym plus up to l-1 cache entries (§III-D-1).
  std::vector<PseudonymRecord> set =
      cache_.select_random(params_.shuffle_length - 1, env_.now(), rng_);
  PPO_CHECK(own_.has_value());
  set.push_back(*own_);
  return set;
}

void OverlayNode::shuffle_tick() {
  if (!online_) return;
  ++counters_.online_ticks;
  ensure_own_pseudonym();

  // Uniform choice over n.links = trusted + pseudonym links.
  const std::vector<PseudonymValue> pseudos = pseudonym_links();
  counters_.max_out_degree =
      std::max(counters_.max_out_degree, trusted_.size() + pseudos.size());
  const std::size_t total = trusted_.size() + pseudos.size();
  if (total == 0) return;
  const std::size_t pick = static_cast<std::size_t>(rng_.uniform_u64(total));

  NodeId target;
  if (pick < trusted_.size()) {
    target = trusted_[pick];
  } else {
    const auto owner = env_.resolve(pseudos[pick - trusted_.size()]);
    if (!owner) return;  // expired between sampling and send: skip round
    target = *owner;
  }

  begin_exchange(target, compose_shuffle_set());
}

void OverlayNode::begin_exchange(NodeId target,
                                 std::vector<PseudonymRecord> set) {
  // A still-pending exchange is superseded: its response never
  // arrived (or is still in flight and will be counted stale).
  if (pending_) abort_pending_exchange();
  pending_sent_.assign(set);
  pending_ = PendingExchange{++next_exchange_id_, target, 0,
                             params_.shuffle_timeout, env_.now()};
  PPO_TRACE_SPAN_BEGIN(ppo::obs::TraceCategory::kShuffle, "exchange", id_,
                       exchange_span_id(id_, pending_->id),
                       (ppo::obs::TraceArg{"target",
                                           static_cast<double>(target)}));
  ++counters_.requests_sent;
  env_.send_shuffle_request(id_, target, std::move(set));
  arm_exchange_timer();
}

void OverlayNode::arm_exchange_timer() {
  if (params_.shuffle_timeout <= 0.0) return;
  env_.schedule_timer(id_, pending_->timeout, NodeTimer::kExchangeTimeout,
                      pending_->id);
}

void OverlayNode::handle_exchange_timeout(std::uint64_t exchange_id) {
  if (!pending_ || pending_->id != exchange_id)
    return;  // exchange completed or superseded: stale timer
  ++counters_.request_timeouts;
  PPO_TRACE_EVENT(ppo::obs::TraceCategory::kShuffle, "timeout", id_,
                  (ppo::obs::TraceArg{"target",
                                      static_cast<double>(pending_->target)}));
  if (!online_ || pending_->retries_used >= params_.shuffle_max_retries) {
    abort_pending_exchange();
    return;
  }
  ++pending_->retries_used;
  pending_->timeout *= params_.shuffle_retry_backoff;
  ++counters_.request_retries;
  PPO_TRACE_EVENT(ppo::obs::TraceCategory::kShuffle, "retry", id_,
                  (ppo::obs::TraceArg{
                      "attempt", static_cast<double>(pending_->retries_used)}));
  ++counters_.requests_sent;
  env_.send_shuffle_request(
      id_, pending_->target,
      std::vector<PseudonymRecord>(pending_sent_.items().begin(),
                                   pending_sent_.items().end()));
  arm_exchange_timer();
}

void OverlayNode::abort_pending_exchange() {
  ++counters_.exchanges_aborted;
  PPO_TRACE_EVENT(ppo::obs::TraceCategory::kShuffle, "abort", id_);
  PPO_TRACE_SPAN_END(ppo::obs::TraceCategory::kShuffle, "exchange", id_,
                     exchange_span_id(id_, pending_->id));
  pending_.reset();
}

double OverlayNode::max_accepted_lifetime() const {
  if (params_.max_accepted_lifetime > 0.0)
    return params_.max_accepted_lifetime;
  // Honest mints carry at most `lifetime` of remaining validity the
  // instant they are minted, strictly less by the time they arrive.
  return params_.adaptive_lifetime ? params_.adaptive_max_lifetime
                                   : params_.pseudonym_lifetime;
}

bool OverlayNode::admit_request(NodeId from, sim::Time now) {
  RateBucket& bucket = request_rate_[from];
  if (now - bucket.window_start >= params_.peer_rate_window) {
    bucket.window_start = now;
    bucket.accepted = 0;
  }
  if (bucket.accepted >= params_.peer_rate_limit) return false;
  ++bucket.accepted;
  return true;
}

void OverlayNode::handle_shuffle_request(
    NodeId from, const std::vector<PseudonymRecord>& received) {
  if (!online_) return;  // defensive: transport already gates this
  if (params_.peer_rate_limit > 0 && !admit_request(from, env_.now())) {
    // Over the per-peer budget: drop the request whole — no response
    // (the sender's timeout/backoff absorbs it) and no merge, so a
    // flood neither pollutes this node nor amplifies through it.
    ++counters_.requests_rate_limited;
    PPO_TRACE_EVENT(ppo::obs::TraceCategory::kAdversary, "rate_limited", id_,
                    (ppo::obs::TraceArg{"peer", static_cast<double>(from)}));
    return;
  }
  ensure_own_pseudonym();
  std::vector<PseudonymRecord> response = compose_shuffle_set();
  ++counters_.responses_sent;
  env_.send_shuffle_response(id_, from, response);
  merge_received(received, response);
}

void OverlayNode::handle_shuffle_response(
    const std::vector<PseudonymRecord>& received) {
  if (!online_) return;
  if (!pending_) {
    // Late (the exchange timed out or was superseded) or duplicated
    // (already merged). The records are still valid gossip, but they
    // must not be paired with another exchange's sent set: merge them
    // additively, as if nothing had been offered in return.
    ++counters_.stale_responses;
    PPO_TRACE_EVENT(ppo::obs::TraceCategory::kShuffle, "stale_response", id_);
    merge_received(received, {});
    return;
  }
  ++counters_.shuffles_completed;
  PPO_TRACE_SPAN_END(ppo::obs::TraceCategory::kShuffle, "exchange", id_,
                     exchange_span_id(id_, pending_->id));
  // Live telemetry seam: request→response round-trip in sim time.
  // Read-only on node state and gated on the installed registry, so
  // runs with telemetry off pay one relaxed load and nothing else.
  if (auto* live = obs::live_metrics())
    live->observe("overlay_exchange_latency_seconds",
                  env_.now() - pending_->started);
  // Clear the pending slot before merging (it must be free for the
  // next tick regardless); the sent set stays intact in its per-node
  // block — merge_received only touches cache/sampler state, never
  // the block.
  pending_.reset();
  merge_received(received, pending_sent_.items());
}

void OverlayNode::merge_received(const std::vector<PseudonymRecord>& received,
                                 std::span<const PseudonymRecord> sent) {
  const sim::Time now = env_.now();

  // Expiry/format validation defense (§III-E): an honest record's
  // value fits the pseudonym width and its remaining lifetime never
  // exceeds what the service would have granted at mint time. Records
  // failing either test are forged — they touch neither the cache nor
  // the sampler.
  const std::vector<PseudonymRecord>* records = &received;
  std::vector<PseudonymRecord> accepted;
  if (params_.validate_received) {
    const double limit = max_accepted_lifetime() + 1e-9;
    accepted.reserve(received.size());
    for (const PseudonymRecord& record : received) {
      const bool format_ok =
          params_.pseudonym_bits >= 64 ||
          (record.value >> params_.pseudonym_bits) == 0;
      if (!format_ok || record.expiry - now > limit) {
        ++counters_.forged_rejected;
        continue;
      }
      accepted.push_back(record);
    }
    if (accepted.size() != received.size())
      PPO_TRACE_COUNTER(ppo::obs::TraceCategory::kAdversary, "forged_rejected",
                        id_, received.size() - accepted.size());
    records = &accepted;
  }

  const PseudonymValue own_value = own_ ? own_->value : 0;
  cache_.merge(*records, own_value, sent, now, rng_);
  // Every received pseudonym is offered to the sampler, cached or not
  // (§III-D-2) — except ones addressing this very node (current or a
  // still-circulating previous pseudonym of ours).
  for (const PseudonymRecord& record : *records) {
    if (!record.valid_at(now)) continue;
    if (std::find(own_history_.begin(), own_history_.end(), record.value) !=
        own_history_.end())
      continue;
    if (params_.naive_sampling)
      sampler_.offer_naive(record, now, rng_);
    else
      sampler_.offer(record, now);
    if (params_.population_estimation) note_seen(record, now);
  }
}

void OverlayNode::note_seen(const PseudonymRecord& record, sim::Time now) {
  if (std::uint32_t* pos = seen_index_.find(record.value)) {
    seen_pseudonyms_[*pos].expiry =
        std::max(seen_pseudonyms_[*pos].expiry, record.expiry);
    return;
  }
  // Opportunistic compaction keeps the table near the live-pseudonym
  // population size.
  if (seen_pseudonyms_.size() > 64 &&
      seen_pseudonyms_.size() % 64 == 0) {
    for (std::size_t i = 0; i < seen_pseudonyms_.size();) {
      if (!seen_pseudonyms_[i].valid_at(now)) {
        seen_index_.erase(seen_pseudonyms_[i].value);
        seen_pseudonyms_[i] = seen_pseudonyms_.back();
        if (i + 1 != seen_pseudonyms_.size())
          *seen_index_.find(seen_pseudonyms_[i].value) =
              static_cast<std::uint32_t>(i);
        seen_pseudonyms_.pop_back();
      } else {
        ++i;
      }
    }
  }
  seen_index_.insert(record.value,
                     static_cast<std::uint32_t>(seen_pseudonyms_.size()));
  seen_pseudonyms_.push_back(record);
}

std::size_t OverlayNode::estimated_population() const {
  const sim::Time now = env_.now();
  std::size_t live = 0;
  for (const auto& record : seen_pseudonyms_) live += record.valid_at(now);
  // The node's own pseudonym never passes through merge_received.
  live += (own_ && own_->valid_at(now));
  return live;
}

std::vector<PseudonymValue> OverlayNode::pseudonym_links() const {
  return sampler_.live_values(env_.now());
}

std::size_t OverlayNode::out_degree() const {
  return trusted_.size() + pseudonym_links().size();
}

void OverlayNode::inject_cache_record(const PseudonymRecord& record) {
  cache_.merge({record}, own_ ? own_->value : 0, {}, env_.now(), rng_);
}

std::optional<PseudonymRecord> OverlayNode::own_pseudonym() const {
  if (own_ && own_->valid_at(env_.now())) return own_;
  return std::nullopt;
}

void OverlayNode::save_state(ckpt::Writer& w) const {
  w.tag(0x4E4F4445u);  // 'NODE'
  w.u32(id_);
  w.size(trusted_.size());
  for (const NodeId v : trusted_) w.u32(v);
  w.rng(rng_);
  cache_.save_state(w);
  sampler_.save_state(w);
  w.b(own_.has_value());
  if (own_) {
    w.u64(own_->value);
    w.f64(own_->expiry);
  }
  w.u64_vec(own_history_);
  w.b(online_);
  w.b(ever_started_);
  w.u64(renewal_epoch_);
  w.b(pending_.has_value());
  if (pending_) {
    w.u64(pending_->id);
    w.u32(pending_->target);
    w.u64(pending_->retries_used);
    w.f64(pending_->timeout);
    w.f64(pending_->started);
  }
  w.size(pending_sent_.size());
  for (const auto& record : pending_sent_.items()) {
    w.u64(record.value);
    w.f64(record.expiry);
  }
  w.u64(next_exchange_id_);
  w.f64(offline_since_);
  w.f64(offline_ewma_);
  w.size(seen_pseudonyms_.size());
  for (const auto& record : seen_pseudonyms_) {
    w.u64(record.value);
    w.f64(record.expiry);
  }
  {
    // unordered_map: serialize sorted so identical states write
    // identical bytes.
    std::vector<std::pair<NodeId, RateBucket>> sorted(request_rate_.begin(),
                                                      request_rate_.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.size(sorted.size());
    for (const auto& [peer, bucket] : sorted) {
      w.u32(peer);
      w.f64(bucket.window_start);
      w.u32(bucket.accepted);
    }
  }
  w.u64(counters_.requests_sent);
  w.u64(counters_.responses_sent);
  w.u64(counters_.shuffles_completed);
  w.u64(counters_.online_ticks);
  w.u64(counters_.max_out_degree);
  w.u64(counters_.request_timeouts);
  w.u64(counters_.request_retries);
  w.u64(counters_.exchanges_aborted);
  w.u64(counters_.stale_responses);
  w.u64(counters_.forged_rejected);
  w.u64(counters_.requests_rate_limited);
}

void OverlayNode::load_state(ckpt::Reader& r) {
  r.tag(0x4E4F4445u);
  if (r.u32() != id_) throw ckpt::ParseError("node id mismatch");
  if (r.size() != trusted_.size())
    throw ckpt::ParseError("trusted-degree mismatch");
  for (const NodeId v : trusted_)
    if (r.u32() != v) throw ckpt::ParseError("trusted-neighbor mismatch");
  rng_ = r.rng();
  cache_.load_state(r);
  sampler_.load_state(r);
  own_.reset();
  if (r.b()) {
    PseudonymRecord record;
    record.value = r.u64();
    record.expiry = r.f64();
    own_ = record;
  }
  own_history_ = r.u64_vec();
  online_ = r.b();
  ever_started_ = r.b();
  renewal_epoch_ = r.u64();
  pending_.reset();
  if (r.b()) {
    PendingExchange p;
    p.id = r.u64();
    p.target = r.u32();
    p.retries_used = r.u64();
    p.timeout = r.f64();
    p.started = r.f64();
    pending_ = p;
  }
  {
    const std::size_t n = r.size();
    if (n > pending_sent_.capacity())
      throw ckpt::ParseError("pending-sent set exceeds capacity");
    pending_sent_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      PseudonymRecord record;
      record.value = r.u64();
      record.expiry = r.f64();
      pending_sent_.push_back(record);
    }
  }
  next_exchange_id_ = r.u64();
  offline_since_ = r.f64();
  offline_ewma_ = r.f64();
  {
    const std::size_t n = r.size();
    seen_pseudonyms_.clear();
    seen_index_.clear();
    seen_pseudonyms_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      PseudonymRecord record;
      record.value = r.u64();
      record.expiry = r.f64();
      seen_index_.insert(record.value,
                         static_cast<std::uint32_t>(seen_pseudonyms_.size()));
      seen_pseudonyms_.push_back(record);
    }
  }
  {
    const std::size_t n = r.size();
    request_rate_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId peer = r.u32();
      RateBucket bucket;
      bucket.window_start = r.f64();
      bucket.accepted = r.u32();
      request_rate_[peer] = bucket;
    }
  }
  counters_.requests_sent = r.u64();
  counters_.responses_sent = r.u64();
  counters_.shuffles_completed = r.u64();
  counters_.online_ticks = r.u64();
  counters_.max_out_degree = r.u64();
  counters_.request_timeouts = r.u64();
  counters_.request_retries = r.u64();
  counters_.exchanges_aborted = r.u64();
  counters_.stale_responses = r.u64();
  counters_.forged_rejected = r.u64();
  counters_.requests_rate_limited = r.u64();
}

}  // namespace ppo::overlay
