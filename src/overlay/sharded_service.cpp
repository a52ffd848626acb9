#include "overlay/sharded_service.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace ppo::overlay {

namespace {

/// derive_seed subsystem tags. Stable constants: changing one changes
/// every sharded trajectory.
constexpr std::uint64_t kChurnStream = 1;
constexpr std::uint64_t kTransportStream = 2;
constexpr std::uint64_t kNodeProtocolStream = 3;
constexpr std::uint64_t kMintStream = 4;
constexpr std::uint64_t kTickPhaseStream = 5;
constexpr std::uint64_t kMixStream = 6;
constexpr std::uint64_t kMixTransportStream = 7;

/// The service's event kinds; `a` carries a timer's key.
enum Kind : std::uint8_t { kTick = 0, kRenewal = 1, kExchangeTimeout = 2 };

/// Shuffle-message flags (the first byte on the wire).
constexpr std::uint8_t kResponseFlag = 1;
constexpr std::uint8_t kObservedFlag = 2;
/// An observation on the wire: time, src, src_pseudo, src_expiry,
/// digest, is_response.
constexpr std::size_t kObservationBytes = 8 + 4 + 8 + 8 + 8 + 1;

static_assert(std::is_trivially_copyable_v<PseudonymRecord> &&
                  sizeof(PseudonymRecord) == 16,
              "shuffle records travel as raw 16-byte values");

template <typename T>
void put(sim::Payload& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T get(std::span<const std::uint8_t>& in) {
  T value{};
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return value;
}

}  // namespace

sim::ShardedSimulator::Options simulator_options(
    const OverlayServiceOptions& options, std::size_t nodes,
    std::size_t shards) {
  sim::ShardedSimulator::Options so;
  so.shards = shards;
  so.num_actors = nodes;
  so.lookahead = options.use_mix_network ? options.mix.min_hop_latency
                                         : options.transport.min_latency;
  return so;
}

ShardedOverlayService::ShardedOverlayService(
    sim::ShardedSimulator& sim, const graph::Graph& trust_graph,
    const churn::ChurnModel& churn_model, OverlayServiceOptions options,
    std::uint64_t seed)
    : ShardedOverlayService(sim, trust_graph,
                            std::vector<const churn::ChurnModel*>(
                                trust_graph.num_nodes(), &churn_model),
                            options, seed) {}

ShardedOverlayService::ShardedOverlayService(
    sim::ShardedSimulator& sim, const graph::Graph& trust_graph,
    std::vector<const churn::ChurnModel*> churn_models,
    OverlayServiceOptions options, std::uint64_t seed)
    : sim_(sim),
      handler_(sim.add_handler(*this)),
      trust_graph_(trust_graph),
      options_(options),
      seed_(seed),
      pseudonyms_(options_.params.pseudonym_bits),
      churn_(sim, std::move(churn_models),
             Rng(derive_seed(seed, kChurnStream))) {
  const std::size_t n = trust_graph.num_nodes();
  PPO_CHECK_MSG(n >= 2, "trust graph too small");
  PPO_CHECK_MSG(churn_.num_nodes() == n, "one churn model per node required");
  PPO_CHECK_MSG(sim_.num_actors() == n,
                "simulator actor count must equal the node count");
  // Mints of one window cannot see each other (they are published at
  // the barrier, on every K), so a same-window collision of two owners
  // aborts at publish. The default 64-bit space makes that vanishingly
  // unlikely; narrow widths are for small populations.
  const auto online = [this](NodeId v) { return churn_.is_online(v); };
  if (options_.use_mix_network) {
    // Relay hops stay on the sender's shard; only the exit hop
    // crosses shards, so it must clear the lookahead window.
    PPO_CHECK_MSG(options_.mix.min_hop_latency >= sim_.lookahead(),
                  "mix min hop latency below the lookahead window");
    mix_ = std::make_unique<privacylink::MixNetwork>(
        sim, options_.mix, Rng(derive_seed(seed, kMixStream)));
    transport_ = std::make_unique<privacylink::MixTransport>(
        *mix_, options_.mix_transport,
        Rng(derive_seed(seed, kMixTransportStream)), online, n);
  } else {
    PPO_CHECK_MSG(options_.transport.min_latency >= sim_.lookahead(),
                  "transport min latency below the lookahead window");
    auto bare = std::make_unique<privacylink::Transport>(
        sim, options_.transport, Rng(derive_seed(seed, kTransportStream)),
        online, n);
    bare_ = bare.get();
    transport_ = std::move(bare);
  }
  link_ = transport_.get();
  transport_->set_receiver(*this);
  if (options_.link_faults && options_.link_faults->enabled()) {
    // The wrapper interposes as the bare transport's receiver.
    faulty_ = std::make_unique<fault::FaultyTransport>(
        sim, *transport_, *options_.link_faults, n);
    faulty_->set_receiver(*this);
    link_ = faulty_.get();
  }
  nodes_.reserve(n);
  mint_rngs_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = trust_graph.neighbors(v);
    nodes_.emplace_back(arena_, v, options_.params,
                        std::vector<NodeId>(nbrs.begin(), nbrs.end()), *this,
                        Rng(derive_seed(seed, kNodeProtocolStream, v)));
    mint_rngs_.push_back(Rng(derive_seed(seed, kMintStream, v)));
  }
  pending_mints_.resize(sim_.num_shards());
  pending_adversary_mints_.resize(sim_.num_shards());
  sim_.set_barrier_hook([this] { publish_pending_mints(); });
  init_adversary();
  if (options_.observer && options_.observer->enabled())
    observer_ = std::make_unique<inference::ObserverAdversary>(
        *options_.observer, nodes_.size());
}

void ShardedOverlayService::init_adversary() {
  if (!options_.adversary || !options_.adversary->enabled()) return;
  engine_ = std::make_unique<adversary::AdversaryEngine>(
      *options_.adversary, nodes_.size(),
      adversary::EngineConfig{options_.params.shuffle_length,
                              options_.params.pseudonym_lifetime,
                              options_.params.pseudonym_bits});
  // Sampler references are immutable after node construction, so the
  // probe is safe to run from any shard worker (the engine caches the
  // result on first use).
  engine_->set_reference_probe(
      [this](NodeId v) { return nodes_[v].sampler_references(); });
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if (engine_->role_of(v) != adversary::Role::kCachePolluter) continue;
    const auto nbrs = trust_graph_.neighbors(v);
    if (!nbrs.empty()) engine_->set_request_redirect(v, nbrs.front());
  }
}

churn::ChurnCallbacks ShardedOverlayService::make_churn_callbacks() {
  return churn::ChurnCallbacks{
      .on_online = [this](NodeId v) { nodes_[v].handle_online(); },
      .on_offline = [this](NodeId v) { nodes_[v].handle_offline(); },
  };
}

double ShardedOverlayService::tick_period(NodeId v) const {
  // Attack tempo: polluters tick polluter_tick_multiplier× faster.
  return options_.params.shuffle_period /
         (engine_ ? engine_->tick_rate_multiplier(v) : 1.0);
}

void ShardedOverlayService::start() {
  PPO_CHECK_MSG(!started_, "overlay service already started");
  started_ = true;

  churn_.start(make_churn_callbacks());

  for (NodeId v = 0; v < nodes_.size(); ++v) {
    // Phase streams are node-keyed, so the tick multiplier cannot
    // perturb any other node's draws. A tick schedules its successor,
    // so a period of zero would loop at one instant.
    const double period = tick_period(v);
    PPO_CHECK_MSG(period > 0.0, "shuffle period must be positive");
    Rng phase_rng(derive_seed(seed_, kTickPhaseStream, v));
    const double phase = phase_rng.uniform_double(0.0, period);
    sim_.schedule_for(v, phase, handler_, kTick);
  }
}

void ShardedOverlayService::fire(const sim::Event& event) {
  const NodeId v = event.target;
  switch (event.kind) {
    case kTick:
      nodes_[v].shuffle_tick();
      sim_.schedule_for(v, tick_period(v), handler_, kTick);
      break;
    case kRenewal:
      nodes_[v].fire_timer(NodeTimer::kRenewal, event.a);
      break;
    default:
      nodes_[v].fire_timer(NodeTimer::kExchangeTimeout, event.a);
      break;
  }
}

bool ShardedOverlayService::accepts(const sim::Event& event) const {
  return event.kind <= kExchangeTimeout &&
         (event.kind != kTick || event.a == 0) && event.b == 0 &&
         event.payload.empty();
}

void ShardedOverlayService::schedule_timer(NodeId node, double delay,
                                           NodeTimer timer,
                                           std::uint64_t key) {
  sim_.schedule_for(node, delay, handler_,
                    timer == NodeTimer::kRenewal ? kRenewal : kExchangeTimeout,
                    key);
}

PseudonymRecord ShardedOverlayService::mint_pseudonym(NodeId owner,
                                                      double lifetime) {
  PPO_CHECK_MSG(lifetime > 0.0, "pseudonym lifetime must be positive");
  Rng& rng = mint_rngs_[owner];
  const sim::Time t = sim_.now();
  PseudonymValue value = 0;
  for (int attempt = 0;; ++attempt) {
    PPO_CHECK_MSG(attempt < 1000, "pseudonym space exhausted — widen `bits`");
    value = privacylink::random_pseudonym_value(rng, pseudonyms_.bits());
    if (!pseudonyms_.alive(value, t)) break;
  }
  const PseudonymRecord record{value, t + lifetime};
  PPO_TRACE_EVENT(ppo::obs::TraceCategory::kPseudonym, "mint", owner,
                  (ppo::obs::TraceArg{"lifetime", lifetime}));
  const std::size_t shard = sim_.current_shard();
  if (shard == sim::ShardedSimulator::kNoShard) {
    pseudonyms_.register_minted(owner, record, t);  // setup: no window
  } else {
    pending_mints_[shard].push_back(PendingMint{owner, record});
  }
  return record;
}

void ShardedOverlayService::publish_pending_mints() {
  const sim::Time t = sim_.now();
  for (std::vector<PendingMint>& mints : pending_mints_) {
    for (const PendingMint& m : mints)
      pseudonyms_.register_minted(m.owner, m.record, t);
    mints.clear();
  }
  // Adversary mints second, in (owner, value) order: the first writer
  // of a value keeps it while live (try_register_minted), and sorting
  // makes "first" a function of the window's contents, not of how the
  // contents were split across shards.
  std::vector<PendingMint> adversarial;
  for (std::vector<PendingMint>& mints : pending_adversary_mints_) {
    adversarial.insert(adversarial.end(), mints.begin(), mints.end());
    mints.clear();
  }
  if (!adversarial.empty()) {
    std::sort(adversarial.begin(), adversarial.end(),
              [](const PendingMint& a, const PendingMint& b) {
                if (a.owner != b.owner) return a.owner < b.owner;
                return a.record.value < b.record.value;
              });
    for (const PendingMint& m : adversarial)
      pseudonyms_.try_register_minted(m.owner, m.record, t);
  }
  // lookup() never erases, so reclaim expired registrations here
  // (behaviour-neutral: expired values are unroutable either way).
  if (t - last_gc_ >= 50.0) {
    pseudonyms_.collect_garbage(t);
    last_gc_ = t;
  }
}

std::optional<NodeId> ShardedOverlayService::resolve(PseudonymValue value) {
  // A blacked-out pseudonym service answers no resolution request;
  // the protocol skips the shuffle round (graceful degradation).
  const sim::Time t = sim_.now();
  for (const fault::Window& w : pseudonym_blackouts_)
    if (w.contains(t)) return std::nullopt;
  return pseudonyms_.lookup(value, t);
}

void ShardedOverlayService::send_shuffle_request(
    NodeId from, NodeId to, std::vector<PseudonymRecord> set) {
  send_shuffle(from, to, /*is_response=*/false, set);
}

void ShardedOverlayService::send_shuffle_response(
    NodeId from, NodeId to, std::vector<PseudonymRecord> set) {
  send_shuffle(from, to, /*is_response=*/true, set);
}

void ShardedOverlayService::send_shuffle(NodeId from, NodeId to,
                                         bool is_response,
                                         std::vector<PseudonymRecord>& set) {
  if (engine_) {
    const auto verdict =
        engine_->transform_outgoing(from, sim_.now(), is_response, set);
    for (const PseudonymRecord& record : verdict.to_register) {
      const std::size_t shard = sim_.current_shard();
      if (shard == sim::ShardedSimulator::kNoShard) {
        pseudonyms_.try_register_minted(from, record, sim_.now());
      } else {
        pending_adversary_mints_[shard].push_back(PendingMint{from, record});
      }
    }
    // A suppressed send never leaves; a polluter's request may be
    // redirected.
    if (verdict.suppress) return;
    if (!is_response) to = engine_->redirect_request_target(from, to);
  }
  // Sender-context capture (reads only the sender's own state), then
  // receiver-context completion at delivery: each observation lands in
  // the destination node's buffer, touched only from that node's shard
  // — the K-invariance contract.
  std::optional<inference::PendingObservation> observed;
  if (observer_)
    observed = observer_->capture(from, to, sim_.now(), is_response,
                                  nodes_[from].own_pseudonym(), set);
  link_->send(from, to, encode_message(is_response, set, observed));
}

sim::Payload ShardedOverlayService::encode_message(
    bool is_response, const std::vector<PseudonymRecord>& set,
    const std::optional<inference::PendingObservation>& observed) const {
  const std::size_t records = set.size() * sizeof(PseudonymRecord);
  sim::Payload out;
  out.reserve(1 + (observed ? kObservationBytes : 0) + records +
              privacylink::kLinkTrailerReserve);
  out.push_back(static_cast<std::uint8_t>((is_response ? kResponseFlag : 0) |
                                          (observed ? kObservedFlag : 0)));
  if (observed) {
    put(out, observed->time);
    put(out, observed->src);
    put(out, observed->src_pseudo);
    put(out, observed->src_expiry);
    put(out, observed->digest);
    put(out, static_cast<std::uint8_t>(observed->is_response ? 1 : 0));
  }
  const auto* raw = reinterpret_cast<const std::uint8_t*>(set.data());
  out.insert(out.end(), raw, raw + records);
  return out;
}

bool ShardedOverlayService::decode_message(
    std::span<const std::uint8_t> message, bool& is_response,
    std::vector<PseudonymRecord>& set,
    std::optional<inference::PendingObservation>& observed) const {
  if (message.empty()) return false;
  const std::uint8_t flags = get<std::uint8_t>(message);
  if (flags > (kResponseFlag | kObservedFlag)) return false;
  is_response = (flags & kResponseFlag) != 0;
  observed.reset();
  if ((flags & kObservedFlag) != 0) {
    if (!observer_ || message.size() < kObservationBytes) return false;
    inference::PendingObservation p;
    p.time = get<double>(message);
    p.src = get<NodeId>(message);
    p.src_pseudo = get<PseudonymValue>(message);
    p.src_expiry = get<double>(message);
    p.digest = get<std::uint64_t>(message);
    const std::uint8_t response = get<std::uint8_t>(message);
    if (!std::isfinite(p.time) || !std::isfinite(p.src_expiry) ||
        p.src >= nodes_.size() || response > 1)
      return false;
    p.is_response = response != 0;
    observed = p;
  }
  if (message.size() % sizeof(PseudonymRecord) != 0) return false;
  set.resize(message.size() / sizeof(PseudonymRecord));
  if (!set.empty()) std::memcpy(set.data(), message.data(), message.size());
  for (const PseudonymRecord& record : set)
    if (!std::isfinite(record.expiry)) return false;
  return true;
}

void ShardedOverlayService::receive(NodeId from, NodeId to,
                                    std::span<const std::uint8_t> message) {
  // Decoded once, into this thread's scratch: a delivery never runs
  // inside another, so the scratch is free whenever one starts.
  thread_local std::vector<PseudonymRecord> set;
  bool is_response = false;
  std::optional<inference::PendingObservation> observed;
  PPO_CHECK_MSG(decode_message(message, is_response, set, observed),
                "malformed shuffle message");
  if (engine_) engine_->observe_received(to, set);
  if (observed) observer_->deliver(*observed, to, nodes_[to].own_pseudonym());
  if (is_response)
    nodes_[to].handle_shuffle_response(set);
  else
    nodes_[to].handle_shuffle_request(from, set);
}

bool ShardedOverlayService::decodable(
    std::span<const std::uint8_t> message) const {
  bool is_response = false;
  std::vector<PseudonymRecord> set;
  std::optional<inference::PendingObservation> observed;
  return decode_message(message, is_response, set, observed);
}

graph::Graph ShardedOverlayService::overlay_snapshot() const {
  graph::Graph overlay(nodes_.size());
  for (const auto& [u, v] : trust_graph_.edges()) overlay.add_edge(u, v);
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    for (const PseudonymValue value : nodes_[u].pseudonym_links()) {
      const auto owner = pseudonyms_.lookup(value, sim_.now());
      if (owner && *owner != u) overlay.add_edge(u, *owner);
    }
  }
  overlay.finalize();
  return overlay;
}

std::span<const std::pair<graph::NodeId, graph::NodeId>>
ShardedOverlayService::overlay_edges() {
  const sim::Time now = sim_.now();
  return edge_view_.collect(
      trust_graph_, now,
      [this](NodeId u) -> const SlotSampler& { return nodes_[u].sampler(); },
      [this, now](PseudonymValue value) {
        return pseudonyms_.lookup_with_expiry(value, now);
      });
}

std::vector<NodeId> ShardedOverlayService::current_peers(NodeId v) const {
  PPO_CHECK_MSG(v < nodes_.size(), "node out of range");
  std::vector<NodeId> peers(nodes_[v].trusted_links());
  for (const PseudonymValue value : nodes_[v].pseudonym_links()) {
    const auto owner = pseudonyms_.lookup(value, sim_.now());
    if (owner && *owner != v) peers.push_back(*owner);
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  return peers;
}

SlotSampler::ReplacementCounters ShardedOverlayService::total_replacements()
    const {
  SlotSampler::ReplacementCounters total;
  for (const OverlayNode& node : nodes_) {
    const auto& c = node.replacement_counters();
    total.refills_after_expiry += c.refills_after_expiry;
    total.better_displacements += c.better_displacements;
    total.initial_fills += c.initial_fills;
    total.displacements_damped += c.displacements_damped;
  }
  return total;
}

OverlayNode::Counters ShardedOverlayService::total_counters() const {
  OverlayNode::Counters total;
  for (const OverlayNode& node : nodes_) {
    const auto& c = node.counters();
    total.requests_sent += c.requests_sent;
    total.responses_sent += c.responses_sent;
    total.shuffles_completed += c.shuffles_completed;
    total.online_ticks += c.online_ticks;
    total.max_out_degree = std::max(total.max_out_degree, c.max_out_degree);
    total.request_timeouts += c.request_timeouts;
    total.request_retries += c.request_retries;
    total.exchanges_aborted += c.exchanges_aborted;
    total.stale_responses += c.stale_responses;
    total.forged_rejected += c.forged_rejected;
    total.requests_rate_limited += c.requests_rate_limited;
  }
  return total;
}

std::uint64_t ShardedOverlayService::count_eclipsed_slots() const {
  if (!engine_) return 0;
  const sim::Time now = sim_.now();
  std::uint64_t eclipsed = 0;
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if (engine_->role_of(v) != adversary::Role::kHonest) continue;
    const SlotSampler& sampler = nodes_[v].sampler();
    for (std::size_t i = 0; i < sampler.slot_count(); ++i) {
      const auto [ref, record] = sampler.slot(i);
      (void)ref;
      if (!record || !record->valid_at(now)) continue;
      const auto owner = pseudonyms_.lookup(record->value, now);
      if (owner && engine_->role_of(*owner) != adversary::Role::kHonest)
        ++eclipsed;
    }
  }
  return eclipsed;
}

void ShardedOverlayService::enable_checkpointing() {
  PPO_CHECK_MSG(checkpointable(),
                "configuration not checkpointable: mix transport enabled");
}

void ShardedOverlayService::save_checkpoint(ckpt::Writer& w) const {
  PPO_CHECK_MSG(started_, "checkpoint requires a started service");
  PPO_CHECK_MSG(checkpointable(),
                "configuration not checkpointable: mix transport enabled");
  for (const auto& mints : pending_mints_)
    PPO_CHECK_MSG(mints.empty(),
                  "checkpoint with unpublished mints — not at a barrier");
  for (const auto& mints : pending_adversary_mints_)
    PPO_CHECK_MSG(mints.empty(),
                  "checkpoint with unpublished adversary mints");
  w.tag(0x53485256u);  // 'SHRV'
  // Simulator core: clock, executed-event count, per-actor + external
  // sequence counters (actor-keyed, hence K-portable).
  w.f64(sim_.now());
  w.u64(sim_.events_executed());
  w.u64_vec(sim_.actor_seqs());
  w.u64(sim_.external_seq());
  w.f64(last_gc_);
  pseudonyms_.save_state(w);
  churn_.save_state(w);
  bare_->save_state(w);
  w.b(faulty_ != nullptr);
  if (faulty_) faulty_->save_state(w);
  w.b(engine_ != nullptr);
  if (engine_) engine_->save_state(w);
  w.b(observer_ != nullptr);
  if (observer_) observer_->save_state(w);
  w.size(mint_rngs_.size());
  for (const Rng& rng : mint_rngs_) w.rng(rng);
  w.size(nodes_.size());
  for (const OverlayNode& node : nodes_) node.save_state(w);
  // Last, the queue section: ticks, timers, churn transitions and
  // in-flight messages are all pending events.
  sim_.save_events(w);
}

void ShardedOverlayService::restore_from_checkpoint(ckpt::Reader& r) {
  PPO_CHECK_MSG(!started_,
                "restore_from_checkpoint replaces start() on a fresh service");
  PPO_CHECK_MSG(checkpointable(),
                "configuration not checkpointable: mix transport enabled");
  r.tag(0x53485256u);
  const double now = r.f64();
  const std::uint64_t executed = r.u64();
  const std::vector<std::uint64_t> actor_seqs = r.u64_vec();
  const std::uint64_t external_seq = r.u64();
  sim_.restore_state(now, executed, actor_seqs, external_seq);
  last_gc_ = r.f64();
  pseudonyms_.load_state(r);
  churn_.load_state(r);
  bare_->load_state(r);
  if (r.b() != (faulty_ != nullptr))
    throw ckpt::ParseError("fault-plan presence mismatch");
  if (faulty_) faulty_->load_state(r);
  if (r.b() != (engine_ != nullptr))
    throw ckpt::ParseError("adversary presence mismatch");
  if (engine_) engine_->load_state(r);
  if (r.b() != (observer_ != nullptr))
    throw ckpt::ParseError("observer presence mismatch");
  if (observer_) observer_->load_state(r);
  if (r.size() != mint_rngs_.size())
    throw ckpt::ParseError("mint stream count mismatch");
  for (Rng& rng : mint_rngs_) rng = r.rng();
  if (r.size() != nodes_.size())
    throw ckpt::ParseError("node count mismatch");
  for (OverlayNode& node : nodes_) node.load_state(r);
  sim_.load_events(r);
  if (!r.done()) throw ckpt::ParseError("trailing bytes after the queue");
  churn_.resume(make_churn_callbacks());
  started_ = true;
}

metrics::ProtocolHealth ShardedOverlayService::protocol_health() const {
  const OverlayNode::Counters c = total_counters();
  metrics::ProtocolHealth health;
  health.requests_sent = c.requests_sent;
  health.responses_sent = c.responses_sent;
  health.exchanges_completed = c.shuffles_completed;
  health.request_timeouts = c.request_timeouts;
  health.request_retries = c.request_retries;
  health.exchanges_aborted = c.exchanges_aborted;
  health.stale_responses = c.stale_responses;
  health.messages_sent = link_->messages_sent();
  health.messages_delivered = link_->messages_delivered();
  health.messages_dropped = link_->messages_dropped();
  health.forged_rejected = c.forged_rejected;
  health.requests_rate_limited = c.requests_rate_limited;
  health.displacements_damped = total_replacements().displacements_damped;
  health.honest_requests_sent = c.requests_sent;
  health.honest_request_retries = c.request_retries;
  health.honest_exchanges_completed = c.shuffles_completed;
  if (engine_) {
    const auto attack = engine_->total_counters();
    health.forged_injected = attack.forged_injected;
    health.replays_injected = attack.replays_injected;
    health.eclipse_records_injected = attack.eclipse_records_injected;
    health.responses_suppressed = attack.responses_suppressed;
    health.slots_eclipsed = count_eclipsed_slots();
    health.honest_requests_sent = 0;
    health.honest_request_retries = 0;
    health.honest_exchanges_completed = 0;
    for (NodeId v = 0; v < nodes_.size(); ++v) {
      if (engine_->role_of(v) != adversary::Role::kHonest) continue;
      const auto& nc = nodes_[v].counters();
      health.honest_requests_sent += nc.requests_sent;
      health.honest_request_retries += nc.request_retries;
      health.honest_exchanges_completed += nc.shuffles_completed;
    }
  }
  return health;
}

}  // namespace ppo::overlay
