#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "common/rng.hpp"
#include "common/simtime.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "runner/thread_pool.hpp"

namespace ppo::sim {

namespace {

/// Execution context of the event running on this thread, if any.
/// Thread-local so shard threads resolve now()/schedule_after against
/// their own in-flight event without synchronization.
struct ExecContext {
  const ShardedSimulator* sim = nullptr;
  std::size_t shard = ShardedSimulator::kNoShard;
  ActorId actor = kExternalActor;
  Time now = 0.0;
};

thread_local ExecContext* tls_ctx = nullptr;

/// Installs an execution context on this thread for one shard window
/// and restores the previous one on exit — also when an event throws,
/// which matters since shard 0 runs on the caller's thread.
class ContextScope {
 public:
  explicit ContextScope(ExecContext& ctx) : prev_(tls_ctx) {
    tls_ctx = &ctx;
    obs::set_trace_shard(static_cast<std::uint32_t>(ctx.shard));
  }
  ~ContextScope() {
    tls_ctx = prev_;
    obs::set_trace_shard(0);
  }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  ExecContext* const prev_;
};

}  // namespace

ShardedSimulator::ShardedSimulator(Options options) : options_(options) {
  PPO_CHECK_MSG(options_.shards >= 1, "need at least one shard");
  PPO_CHECK_MSG(options_.num_actors >= 1, "need at least one actor");
  PPO_CHECK_MSG(options_.lookahead > 0.0 && std::isfinite(options_.lookahead),
                "lookahead must be positive and finite");
  queues_.resize(options_.shards);
  mailboxes_.resize(options_.shards);
  for (auto& row : mailboxes_) row.resize(options_.shards);
  actor_seq_.assign(options_.num_actors, 0);
  stats_.assign(options_.shards, ShardStats{});
  window_busy_.assign(options_.shards, 0.0);
  if (options_.shards > 1) {
    pool_ = std::make_unique<runner::ThreadPool>(options_.shards - 1,
                                                 options_.shards - 1);
  }
}

ShardedSimulator::~ShardedSimulator() = default;

std::size_t ShardedSimulator::shard_of(ActorId actor, std::size_t shards) {
  if (shards <= 1) return 0;
  std::uint64_t state = actor;
  return static_cast<std::size_t>(splitmix64(state) % shards);
}

std::size_t ShardedSimulator::current_shard() const {
  const ExecContext* ctx = tls_ctx;
  return (ctx != nullptr && ctx->sim == this) ? ctx->shard : kNoShard;
}

Time ShardedSimulator::now() const {
  const ExecContext* ctx = tls_ctx;
  return (ctx != nullptr && ctx->sim == this) ? ctx->now : now_;
}

HandlerId ShardedSimulator::add_handler(EventHandler& handler) {
  PPO_CHECK_MSG(handlers_.size() <= 0xFFFF, "too many event handlers");
  handlers_.push_back(&handler);
  return static_cast<HandlerId>(handlers_.size() - 1);
}

void ShardedSimulator::schedule_at_for(ActorId actor, Time t,
                                       HandlerId handler, std::uint8_t kind,
                                       std::uint64_t a, std::uint64_t b,
                                       Payload payload) {
  PPO_CHECK_MSG(std::isfinite(t), "event time must be finite");
  PPO_CHECK_MSG(handler < handlers_.size(), "event handler not registered");
  PPO_CHECK_MSG(actor < options_.num_actors, "actor out of range");
  const std::size_t dst = shard_of(actor);
  ExecContext* ctx = tls_ctx;
  if (ctx != nullptr && ctx->sim == this) {
    PPO_CHECK_MSG(t >= ctx->now, "cannot schedule into the past");
    Event event{t, ctx->actor, actor_seq_[ctx->actor]++, actor,
                handler, kind, a, b, std::move(payload)};
    if (dst == ctx->shard) {
      queues_[dst].push(std::move(event));
    } else {
      // The lookahead guarantee: cross-shard events always land at or
      // beyond the current window's end, so delivering them at the
      // barrier loses nothing — and makes K-invariance provable.
      PPO_CHECK_MSG(t >= window_end_,
                    "cross-shard event inside the current window violates "
                    "the lookahead contract (latency < lookahead?)");
      ++stats_[ctx->shard].mailbox_out;
      mailboxes_[ctx->shard][dst].push_back(std::move(event));
    }
  } else {
    PPO_CHECK_MSG(!in_window_, "external scheduling during a window");
    PPO_CHECK_MSG(t >= now_, "cannot schedule into the past");
    queues_[dst].push(Event{t, kExternalActor, external_seq_++, actor,
                            handler, kind, a, b, std::move(payload)});
  }
}

void ShardedSimulator::schedule_for(ActorId actor, Time delay,
                                    HandlerId handler, std::uint8_t kind,
                                    std::uint64_t a, std::uint64_t b,
                                    Payload payload) {
  PPO_CHECK_MSG(delay >= 0.0, "negative delay");
  schedule_at_for(actor, now() + delay, handler, kind, a, b,
                  std::move(payload));
}

void ShardedSimulator::schedule_after(Time delay, HandlerId handler,
                                      std::uint8_t kind, std::uint64_t a,
                                      std::uint64_t b, Payload payload) {
  const ExecContext* ctx = tls_ctx;
  PPO_CHECK_MSG(ctx != nullptr && ctx->sim == this,
                "outside event context there is no actor to schedule for: "
                "use schedule_for");
  schedule_for(ctx->actor, delay, handler, kind, a, b, std::move(payload));
}

void ShardedSimulator::restore_state(
    Time now, std::uint64_t events_base,
    const std::vector<std::uint64_t>& actor_seqs,
    std::uint64_t external_seq) {
  PPO_CHECK_MSG(pending() == 0, "restore_state needs empty queues");
  PPO_CHECK_MSG(std::isfinite(now), "restored clock must be finite");
  PPO_CHECK_MSG(actor_seqs.size() == actor_seq_.size(),
                "actor count mismatch between checkpoint and simulator");
  now_ = now;
  events_base_ = events_base;
  actor_seq_ = actor_seqs;
  external_seq_ = external_seq;
  set_sim_time_context(now_);
}

namespace {

constexpr std::uint32_t kQueueTag = 0x51554555u;  // 'QUEU'

/// The canonical (time, origin, seq) order.
template <typename Keyed>
bool key_before(const Keyed& x, const Keyed& y) {
  if (x.time != y.time) return x.time < y.time;
  if (x.origin != y.origin) return x.origin < y.origin;
  return x.seq < y.seq;
}

}  // namespace

void ShardedSimulator::save_events(ckpt::Writer& w) const {
  PPO_CHECK_MSG(!in_window_, "save_events during a window");
  struct Pending {
    Time time;
    ActorId origin;
    std::uint64_t seq;
    const EventQueue::Body* body;
  };
  std::vector<Pending> pending;
  pending.reserve(this->pending());
  for (const EventQueue& queue : queues_)
    queue.for_each([&pending](Time t, ActorId origin, std::uint64_t seq,
                              const EventQueue::Body& body) {
      pending.push_back(Pending{t, origin, seq, &body});
    });
  for (const auto& row : mailboxes_)
    for (const auto& box : row)
      PPO_CHECK_MSG(box.empty(), "save_events with undrained mailboxes");
  std::sort(pending.begin(), pending.end(), key_before<Pending>);
  w.tag(kQueueTag);
  w.size(handlers_.size());
  for (const EventHandler* handler : handlers_) w.u32(handler->handler_tag());
  w.size(pending.size());
  for (const Pending& p : pending) {
    w.f64(p.time);
    w.u32(p.origin);
    w.u64(p.seq);
    w.u32(p.body->target);
    w.u32(p.body->handler);
    w.u8(p.body->kind);
    w.u64(p.body->a);
    w.u64(p.body->b);
    w.bytes(p.body->payload);
  }
}

void ShardedSimulator::load_events(ckpt::Reader& r) {
  PPO_CHECK_MSG(!in_window_, "load_events during a window");
  PPO_CHECK_MSG(pending() == 0, "load_events needs empty queues");
  r.tag(kQueueTag);
  if (r.size() != handlers_.size())
    throw ckpt::ParseError("event handler count mismatch");
  for (const EventHandler* handler : handlers_)
    if (r.u32() != handler->handler_tag())
      throw ckpt::ParseError("event handler list mismatch");
  const std::size_t count = r.size();
  Event previous;
  for (std::size_t i = 0; i < count; ++i) {
    Event event;
    event.time = r.f64();
    event.origin = r.u32();
    event.seq = r.u64();
    event.target = r.u32();
    const std::uint32_t handler = r.u32();
    event.kind = r.u8();
    event.a = r.u64();
    event.b = r.u64();
    event.payload = r.bytes();
    // Events exactly at the checkpoint time are legal: run_until is
    // exclusive of its end, so an event at `now` is still pending.
    if (!std::isfinite(event.time) || event.time < now_)
      throw ckpt::ParseError("pending event before the checkpoint");
    if (event.target >= options_.num_actors)
      throw ckpt::ParseError("pending event target out of range");
    const std::uint64_t counter =
        event.origin == kExternalActor ? external_seq_
        : event.origin < actor_seq_.size() ? actor_seq_[event.origin]
                                           : 0;
    if (event.seq >= counter)
      throw ckpt::ParseError("pending event seq not below its origin's");
    if (i > 0 && !key_before(previous, event))
      throw ckpt::ParseError("pending events out of canonical order");
    if (handler >= handlers_.size())
      throw ckpt::ParseError("pending event of an unknown handler");
    event.handler = static_cast<HandlerId>(handler);
    if (!handlers_[handler]->accepts(event))
      throw ckpt::ParseError("pending event its handler does not accept");
    previous.time = event.time;
    previous.origin = event.origin;
    previous.seq = event.seq;
    queues_[shard_of(event.target)].push(std::move(event));
  }
}

void ShardedSimulator::run_shard_window(std::size_t shard, Time window_end) {
  using Clock = std::chrono::steady_clock;
  const auto wall_start = options_.profile ? Clock::now() : Clock::time_point{};
  ExecContext ctx;
  ctx.sim = this;
  ctx.shard = shard;
  std::uint64_t executed = 0;
  ShardStats& stats = stats_[shard];
  {
    const ContextScope scope(ctx);
    EventQueue& queue = queues_[shard];
    stats.max_queue = std::max(stats.max_queue, queue.size());
    while (!queue.empty() && queue.top_time() < window_end) {
      Event event = queue.pop();
      ctx.actor = event.target;
      ctx.now = event.time;
      set_sim_time_context(event.time);
      ++executed;
      handlers_[event.handler]->fire(event);
    }
    if (executed > 0 && obs::trace_enabled(obs::TraceCategory::kShard)) {
      set_sim_time_context(window_end);
      PPO_TRACE_COUNTER(obs::TraceCategory::kShard, "window_events",
                        obs::kExternalOrigin, executed);
    }
  }
  stats.events += executed;
  ++stats.windows;
  if (options_.profile) {
    window_busy_[shard] =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    stats.busy_seconds += window_busy_[shard];
  }
}

void ShardedSimulator::drain_mailboxes() {
  // Single-threaded at the barrier. Push order is irrelevant: the
  // queues order by the globally unique (time, origin, seq) key.
  std::size_t drained = 0;
  for (auto& row : mailboxes_) {
    for (std::size_t dst = 0; dst < row.size(); ++dst) {
      drained += row[dst].size();
      for (Event& event : row[dst]) queues_[dst].push(std::move(event));
      row[dst].clear();
    }
  }
  if (drained > 0 && obs::trace_enabled(obs::TraceCategory::kSim)) {
    set_sim_time_context(window_end_);
    PPO_TRACE_COUNTER(obs::TraceCategory::kSim, "mailbox_drained",
                      obs::kExternalOrigin, drained);
  }
}

std::size_t ShardedSimulator::run_until(Time end) {
  PPO_CHECK_MSG(!in_window_, "run_until is not reentrant");
  PPO_CHECK_MSG(std::isfinite(end) && end >= now_, "cannot run backwards");
  const std::uint64_t before = events_executed();
  while (now_ < end) {
    const Time window_end = std::min(now_ + options_.lookahead, end);
    PPO_CHECK_MSG(window_end > now_, "window degenerated (clock too large "
                                     "for the lookahead resolution)");
    window_end_ = window_end;
    in_window_ = true;
    if (pool_ == nullptr) {
      run_shard_window(0, window_end);
    } else {
      run_parallel_window(window_end);
    }
    in_window_ = false;
    drain_mailboxes();
    now_ = window_end;
    set_sim_time_context(now_);
    if (barrier_hook_) barrier_hook_();
  }
  return static_cast<std::size_t>(events_executed() - before);
}

std::size_t ShardedSimulator::run_all(std::size_t max_events) {
  const std::uint64_t before = events_executed();
  while (pending() > 0) {
    PPO_CHECK_MSG(events_executed() - before < max_events,
                  "event budget exhausted before quiescence");
    run_until(now_ + options_.lookahead);
  }
  return static_cast<std::size_t>(events_executed() - before);
}

void ShardedSimulator::run_parallel_window(Time window_end) {
  using Clock = std::chrono::steady_clock;
  const auto wall_start = options_.profile ? Clock::now() : Clock::time_point{};
  for (std::size_t s = 1; s < queues_.size(); ++s) {
    pool_->submit([this, s, window_end] { run_shard_window(s, window_end); });
  }
  std::exception_ptr error;
  try {
    run_shard_window(0, window_end);
  } catch (...) {
    error = std::current_exception();
  }
  // The barrier, also when shard 0 threw: no shard may still be running
  // when the exception leaves run_until.
  try {
    pool_->drain();
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  if (error) std::rethrow_exception(error);
  if (options_.profile) {
    // A shard's stall is the tail of the window it spent waiting for
    // the slowest shard — the skew trace_summarize tabulates.
    const double window_wall =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    auto* live = obs::live_metrics();
    for (std::size_t s = 0; s < stats_.size(); ++s) {
      const double stall = std::max(0.0, window_wall - window_busy_[s]);
      stats_[s].stall_seconds += stall;
      if (live != nullptr) {
        // Per-window wall-clock load profile, streamed into the live
        // registry at the barrier (coordinator thread only, after the
        // workers joined — no concurrent writers). Wall-clock-side:
        // values never feed back into the sim.
        const obs::MetricDims dims{{"shard", std::to_string(s)}};
        live->observe("shard_window_busy_seconds", window_busy_[s], dims);
        live->observe("shard_window_stall_seconds", stall, dims);
      }
    }
  }
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t total = events_base_;
  for (const ShardStats& s : stats_) total += s.events;
  return total;
}

std::size_t ShardedSimulator::pending() const {
  std::size_t total = 0;
  for (const EventQueue& q : queues_) total += q.size();
  for (const auto& row : mailboxes_)
    for (const auto& box : row) total += box.size();
  return total;
}

}  // namespace ppo::sim
