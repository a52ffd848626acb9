#include "overlay/sharded_service.hpp"

#include <algorithm>
#include <string>
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

constexpr NodeId kNoExternalNode = static_cast<NodeId>(-1);

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
      trust_graph_(trust_graph),
      options_(options),
      seed_(seed),
      pseudonyms_(options_.params.pseudonym_bits),
      churn_(sim, std::move(churn_models),
             Rng(derive_seed(seed, kChurnStream))),
      external_node_(kNoExternalNode) {
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
  if (options_.link_faults && options_.link_faults->enabled()) {
    faulty_ = std::make_unique<fault::FaultyTransport>(
        sim, *transport_, *options_.link_faults, n);
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
  // Initial on_online callbacks fire in external context (setup);
  // later transitions are events targeted at their node. The wrapper
  // attributes external callbacks so schedule() can route timers.
  const auto run_as = [this](NodeId v, auto&& fn) {
    if (sim_.current_shard() == sim::ShardedSimulator::kNoShard) {
      external_node_ = v;
      fn();
      external_node_ = kNoExternalNode;
    } else {
      fn();
    }
  };
  return churn::ChurnCallbacks{
      .on_online =
          [this, run_as](NodeId v) {
            run_as(v, [this, v] { nodes_[v].handle_online(); });
          },
      .on_offline =
          [this, run_as](NodeId v) {
            run_as(v, [this, v] { nodes_[v].handle_offline(); });
          },
  };
}

void ShardedOverlayService::start() {
  PPO_CHECK_MSG(!started_, "overlay service already started");
  started_ = true;

  churn_.start(make_churn_callbacks());

  ticks_.reserve(nodes_.size());
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    // Attack tempo: polluters tick polluter_tick_multiplier× faster.
    // Phase streams are node-keyed, so the multiplier cannot perturb
    // any other node's draws.
    const double period =
        options_.params.shuffle_period /
        (engine_ ? engine_->tick_rate_multiplier(v) : 1.0);
    Rng phase_rng(derive_seed(seed_, kTickPhaseStream, v));
    const double phase = phase_rng.uniform_double(0.0, period);
    ticks_.push_back(sim::PeriodicTask::start(
        sim_, phase, period, [this, v] { nodes_[v].shuffle_tick(); }, v));
  }
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
  if (engine_) {
    const auto verdict =
        engine_->transform_outgoing(from, sim_.now(), /*is_response=*/false,
                                    set);
    for (const PseudonymRecord& record : verdict.to_register) {
      const std::size_t shard = sim_.current_shard();
      if (shard == sim::ShardedSimulator::kNoShard) {
        pseudonyms_.try_register_minted(from, record, sim_.now());
      } else {
        pending_adversary_mints_[shard].push_back(PendingMint{from, record});
      }
    }
    if (verdict.suppress) return;
    to = engine_->redirect_request_target(from, to);
  }
  // Sender-context capture (reads only the sender's own state), then
  // receiver-context completion inside the delivery event: each
  // observation lands in the destination node's buffer, touched only
  // from that node's shard — the K-invariance contract.
  std::optional<inference::PendingObservation> observed;
  if (observer_)
    observed = observer_->capture(from, to, sim_.now(),
                                  /*is_response=*/false,
                                  nodes_[from].own_pseudonym(), set);
  if (journal_)
    journal_->stage(encode_delivery(/*is_response=*/false, from, to, set,
                                    observed),
                    from, to);
  link_->send(from, to, [this, from, to, set = std::move(set),
                         observed = std::move(observed)] {
    if (engine_) engine_->observe_received(to, set);
    if (observed)
      observer_->deliver(*observed, to, nodes_[to].own_pseudonym());
    nodes_[to].handle_shuffle_request(from, set);
  });
  if (journal_) journal_->finish_send();
}

void ShardedOverlayService::send_shuffle_response(
    NodeId from, NodeId to, std::vector<PseudonymRecord> set) {
  if (engine_) {
    const auto verdict =
        engine_->transform_outgoing(from, sim_.now(), /*is_response=*/true,
                                    set);
    for (const PseudonymRecord& record : verdict.to_register) {
      const std::size_t shard = sim_.current_shard();
      if (shard == sim::ShardedSimulator::kNoShard) {
        pseudonyms_.try_register_minted(from, record, sim_.now());
      } else {
        pending_adversary_mints_[shard].push_back(PendingMint{from, record});
      }
    }
    if (verdict.suppress) return;  // defector swallows the response
  }
  std::optional<inference::PendingObservation> observed;
  if (observer_)
    observed = observer_->capture(from, to, sim_.now(),
                                  /*is_response=*/true,
                                  nodes_[from].own_pseudonym(), set);
  if (journal_)
    journal_->stage(encode_delivery(/*is_response=*/true, from, to, set,
                                    observed),
                    from, to);
  link_->send(from, to, [this, to, set = std::move(set),
                         observed = std::move(observed)] {
    if (engine_) engine_->observe_received(to, set);
    if (observed)
      observer_->deliver(*observed, to, nodes_[to].own_pseudonym());
    nodes_[to].handle_shuffle_response(set);
  });
  if (journal_) journal_->finish_send();
}

void ShardedOverlayService::schedule(double delay, sim::EventFn fn) {
  if (sim_.current_shard() == sim::ShardedSimulator::kNoShard) {
    PPO_CHECK_MSG(external_node_ != kNoExternalNode,
                  "external timer without a node to attribute it to");
    sim_.schedule_for(external_node_, delay, std::move(fn));
  } else {
    sim_.schedule_after(delay, std::move(fn));
  }
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
  if (journal_) return;
  PPO_CHECK_MSG(checkpointable(),
                "configuration not checkpointable: mix transport or a "
                "two-stage (jitter/reorder) fault plan is enabled");
  journal_ = std::make_unique<privacylink::DeliveryJournal>(
      sim_.num_shards(), [this] {
        const std::size_t s = sim_.current_shard();
        return s == sim::ShardedSimulator::kNoShard ? 0 : s;
      });
  bare_->set_journal(journal_.get());
  if (faulty_) faulty_->set_journal(journal_.get());
}

std::string ShardedOverlayService::encode_delivery(
    bool is_response, NodeId from, NodeId to,
    const std::vector<PseudonymRecord>& set,
    const std::optional<inference::PendingObservation>& observed) const {
  ckpt::Writer w;
  w.u8(is_response ? 1 : 0);
  w.u32(from);
  w.u32(to);
  w.size(set.size());
  for (const auto& record : set) {
    w.u64(record.value);
    w.f64(record.expiry);
  }
  w.b(observed.has_value());
  if (observed) {
    w.f64(observed->time);
    w.u32(observed->src);
    w.u64(observed->src_pseudo);
    w.f64(observed->src_expiry);
    w.u64(observed->digest);
    w.b(observed->is_response);
  }
  return w.take();
}

sim::EventFn ShardedOverlayService::decode_delivery(const std::string& blob) {
  ckpt::Reader r(blob);
  const bool is_response = r.u8() != 0;
  const NodeId from = r.u32();
  const NodeId to = r.u32();
  if (to >= nodes_.size()) throw ckpt::ParseError("delivery target range");
  std::vector<PseudonymRecord> set(r.size());
  for (auto& record : set) {
    record.value = r.u64();
    record.expiry = r.f64();
  }
  std::optional<inference::PendingObservation> observed;
  if (r.b()) {
    if (!observer_) throw ckpt::ParseError("observation without observer");
    inference::PendingObservation p;
    p.time = r.f64();
    p.src = r.u32();
    p.src_pseudo = r.u64();
    p.src_expiry = r.f64();
    p.digest = r.u64();
    p.is_response = r.b();
    observed = p;
  }
  r.done();
  if (is_response) {
    return [this, to, set = std::move(set), observed = std::move(observed)] {
      if (engine_) engine_->observe_received(to, set);
      if (observed)
        observer_->deliver(*observed, to, nodes_[to].own_pseudonym());
      nodes_[to].handle_shuffle_response(set);
    };
  }
  return [this, from, to, set = std::move(set),
          observed = std::move(observed)] {
    if (engine_) engine_->observe_received(to, set);
    if (observed)
      observer_->deliver(*observed, to, nodes_[to].own_pseudonym());
    nodes_[to].handle_shuffle_request(from, set);
  };
}

void ShardedOverlayService::save_checkpoint(ckpt::Writer& w) const {
  PPO_CHECK_MSG(started_, "checkpoint requires a started service");
  PPO_CHECK_MSG(journal_ != nullptr,
                "enable_checkpointing() before save_checkpoint()");
  for (const auto& mints : pending_mints_)
    PPO_CHECK_MSG(mints.empty(),
                  "checkpoint with unpublished mints — not at a barrier");
  for (const auto& mints : pending_adversary_mints_)
    PPO_CHECK_MSG(mints.empty(),
                  "checkpoint with unpublished adversary mints");
  const sim::Time now = sim_.now();
  w.tag(0x53485256u);  // 'SHRV'
  // Simulator core: clock, executed-event count, per-actor + external
  // sequence counters (actor-keyed, hence K-portable).
  w.f64(now);
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
  w.size(ticks_.size());
  for (const sim::PeriodicTask& tick : ticks_) {
    w.f64(tick.next_fire());
    w.u32(tick.ticket().origin);
    w.u64(tick.ticket().seq);
  }
  // Per-node protocol state, one-shot timers included. run_until is
  // exclusive of its end time: timers at exactly t == now are still
  // pending.
  w.size(nodes_.size());
  for (const OverlayNode& node : nodes_) node.save_state(w, now);
  const auto entries = journal_->collect(now);
  w.size(entries.size());
  for (const auto& e : entries) {
    w.u32(e.from);
    w.u32(e.to);
    w.f64(e.fire_time);
    w.u32(e.ticket.origin);
    w.u64(e.ticket.seq);
    w.b(e.dropped);
    w.b(e.faulty);
    w.str(e.payload);
  }
}

void ShardedOverlayService::restore_from_checkpoint(ckpt::Reader& r) {
  PPO_CHECK_MSG(!started_,
                "restore_from_checkpoint replaces start() on a fresh service");
  PPO_CHECK_MSG(journal_ != nullptr,
                "enable_checkpointing() before restore_from_checkpoint()");
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
    throw ckpt::ParseError("tick count mismatch");
  ticks_.clear();
  ticks_.reserve(nodes_.size());
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    const double next_fire = r.f64();
    sim::EventTicket ticket;
    ticket.origin = r.u32();
    ticket.seq = r.u64();
    const double period =
        options_.params.shuffle_period /
        (engine_ ? engine_->tick_rate_multiplier(v) : 1.0);
    ticks_.push_back(sim::PeriodicTask::restore(
        sim_, next_fire, ticket, period,
        [this, v] { nodes_[v].shuffle_tick(); }, v));
  }
  if (r.size() != nodes_.size())
    throw ckpt::ParseError("node count mismatch");
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    nodes_[v].load_state(r);
    for (const auto& t : nodes_[v].restored_renewal_timers())
      sim_.restore_event(t.fire_time, t.ticket, v,
                         nodes_[v].make_renewal_event(t.key));
    for (const auto& t : nodes_[v].restored_exchange_timers())
      sim_.restore_event(t.fire_time, t.ticket, v,
                         nodes_[v].make_timeout_event(t.key));
  }
  const std::size_t in_flight = r.size();
  for (std::size_t i = 0; i < in_flight; ++i) {
    privacylink::DeliveryJournal::Entry e;
    e.from = r.u32();
    e.to = r.u32();
    e.fire_time = r.f64();
    e.ticket.origin = r.u32();
    e.ticket.seq = r.u64();
    e.dropped = r.b();
    e.faulty = r.b();
    e.payload = r.str();
    sim::EventFn payload;
    if (!e.dropped) {
      payload = decode_delivery(e.payload);
      if (e.faulty) {
        if (!faulty_)
          throw ckpt::ParseError("fault-wrapped delivery without fault plan");
        payload = faulty_->wrap_restored(std::move(payload));
      }
    }
    bare_->restore_delivery(e.to, e.fire_time, e.ticket, std::move(payload));
    journal_->restore_entry(std::move(e));
  }
  churn_.restore_start(make_churn_callbacks());
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
