// Deterministic simulation-time event tracer.
//
// Design constraints, in order:
//  1. Zero overhead when disabled: every PPO_TRACE_* site compiles to
//     one relaxed atomic load + branch; argument expressions are only
//     evaluated when the category is enabled.
//  2. Must not perturb trajectories: emitting a record touches no RNG,
//     no simulation state and no shared mutable state on the hot path
//     (per-thread buffers, attached under a mutex only on the first
//     record a thread ever writes).
//  3. Canonical merge order: records are merged in (sim_time, origin,
//     attach_order, seq) order. An actor is pinned to one shard and a
//     window executes on one thread, so all records for a given
//     (time, origin) land in a single buffer and their relative order
//     is the K-invariant execution order.
//
// Usage: construct a Tracer, install_tracer(&tracer, mask), run the
// simulation, uninstall_tracer(), then read tracer.merged() or hand it
// to the exporters in trace_export.hpp. Install/uninstall only at
// quiescent points (no simulation windows in flight).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/simtime.hpp"

namespace ppo::obs {

/// Bit-mask categories; `--trace=shuffle,churn` style filtering.
enum class TraceCategory : std::uint32_t {
  kSim = 1u << 0,        // backend internals (windows, barriers)
  kShard = 1u << 1,      // per-shard load/stall profile records
  kShuffle = 1u << 2,    // overlay exchange spans + instants
  kPseudonym = 1u << 3,  // mints, expiries
  kTransport = 1u << 4,  // fault-layer drops
  kChurn = 1u << 5,      // node up/down transitions
  kLog = 1u << 6,        // kTrace-level log messages routed here
  kUser = 1u << 7,       // ad-hoc instrumentation
  kAdversary = 1u << 8,  // Byzantine attack/defense events
  kInference = 1u << 9,  // passive-observer observation events
  kDht = 1u << 10,       // DHT lookup spans
  kRouting = 1u << 11,   // pseudonym-routing walk spans
};

inline constexpr std::uint32_t kTraceNone = 0;
inline constexpr std::uint32_t kTraceAll = 0xFFFu;

/// Record shape, loosely after Chrome's trace_event phases.
enum class TracePhase : std::uint8_t {
  kInstant,  // point event
  kCounter,  // named counter sample (value)
  kBegin,    // async span open (id pairs it with kEnd)
  kEnd,      // async span close
};

/// Origin id for records emitted outside any actor context (barriers,
/// setup code). Matches sim::kExternalActor's value without depending
/// on the sim library.
inline constexpr std::uint32_t kExternalOrigin = 0xFFFFFFFFu;

struct TraceArg {
  const char* key;  // string literal
  double value;
};

struct TraceRecord {
  double time = 0.0;
  std::uint32_t origin = kExternalOrigin;  // node/actor id
  std::uint32_t shard = 0;
  TraceCategory category = TraceCategory::kUser;
  TracePhase phase = TracePhase::kInstant;
  const char* name = "";  // string literal; never freed
  std::uint64_t id = 0;   // span correlation id / counter dimension
  double value = 0.0;     // counter sample
  TraceArg args[2] = {{nullptr, 0.0}, {nullptr, 0.0}};
  std::string text;       // only set for kLog records
  std::uint64_t seq = 0;  // per-buffer emission order
};

/// Receives batches of records evicted from a full per-thread buffer
/// (and the final drain from Tracer::flush_to_sink). Calls are
/// serialized by the Tracer; a batch preserves one buffer's emission
/// order but batches from different buffers interleave in flush order,
/// not canonical order — streaming trades global ordering for bounded
/// memory. Implementations must not emit trace records.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(std::vector<TraceRecord>&& batch) = 0;
};

/// Collects records into per-thread buffers; merge happens off the hot
/// path in merged(). A Tracer must outlive its installation.
class Tracer {
 public:
  /// `capacity_per_buffer`: records beyond this are counted as dropped
  /// instead of stored, bounding memory for runaway traces. With a
  /// `sink`, a full buffer is flushed to the sink and reused instead —
  /// long runs lose nothing; call flush_to_sink() at the end to drain
  /// what is still resident.
  explicit Tracer(std::size_t capacity_per_buffer = 1u << 22,
                  TraceSink* sink = nullptr);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// All still-resident records in canonical (time, origin,
  /// attach_order, seq) order. Call only while no thread is emitting
  /// (after uninstall or at a barrier). Records already flushed to the
  /// sink are not included.
  std::vector<TraceRecord> merged() const;

  /// Drains every buffer to the sink (no-op without one). Call only at
  /// quiescent points.
  void flush_to_sink();

  /// Total records accepted, including those flushed to the sink.
  std::uint64_t records_recorded() const;
  std::uint64_t records_dropped() const;
  std::uint64_t records_flushed() const;

  // -- internal, called via the emit path --
  void emit(TraceRecord&& record);

 private:
  struct Buffer {
    std::vector<TraceRecord> records;
    std::uint64_t seq = 0;
    std::uint64_t dropped = 0;
  };

  Buffer* attach_buffer();
  void flush_buffer(Buffer& buffer);

  const std::uint64_t id_;  // unique per tracer; keys the per-thread cache
  std::size_t capacity_per_buffer_;
  TraceSink* sink_;
  mutable std::mutex attach_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  mutable std::mutex sink_mutex_;
  std::uint64_t flushed_ = 0;  // guarded by sink_mutex_
};

namespace detail {
// Hot-path globals. The mask is the only thing read when tracing is
// off; the tracer pointer is read only after the mask check passes.
inline std::atomic<std::uint32_t> g_trace_mask{kTraceNone};
inline std::atomic<Tracer*> g_tracer{nullptr};

// Shard of the event executing on this thread; published by the
// simulation backends, folded into every record.
inline thread_local std::uint32_t g_trace_shard = 0;

void emit(TraceCategory cat, TracePhase phase, const char* name,
          std::uint32_t origin, std::uint64_t id, double value);
void emit(TraceCategory cat, TracePhase phase, const char* name,
          std::uint32_t origin, std::uint64_t id, double value,
          TraceArg a0);
void emit(TraceCategory cat, TracePhase phase, const char* name,
          std::uint32_t origin, std::uint64_t id, double value,
          TraceArg a0, TraceArg a1);
void emit_log(std::uint32_t origin, std::string text);
}  // namespace detail

/// True when `cat` is being traced. The disabled path is one relaxed
/// load plus a branch.
inline bool trace_enabled(TraceCategory cat) {
  return (detail::g_trace_mask.load(std::memory_order_relaxed) &
          static_cast<std::uint32_t>(cat)) != 0;
}

/// True when any category is enabled.
inline bool tracing_active() {
  return detail::g_trace_mask.load(std::memory_order_relaxed) != 0;
}

/// Routes PPO_TRACE_* records with categories in `mask` into `tracer`.
/// Only call at quiescent points; `tracer` must outlive the install.
void install_tracer(Tracer* tracer, std::uint32_t mask);
void uninstall_tracer();

/// Current category mask (0 when no tracer installed).
std::uint32_t trace_mask();

/// Publishes the shard executing on this thread (backends only).
inline void set_trace_shard(std::uint32_t shard) {
  detail::g_trace_shard = shard;
}

/// Parses "all", "none"/"" or a comma list of category names
/// (sim, shard, shuffle, pseudonym, transport, churn, log, user,
/// adversary, inference, dht, routing) into a mask. Throws
/// std::invalid_argument on unknown names.
std::uint32_t parse_trace_categories(const std::string& spec);

/// Category bit → lower-case name ("shuffle"); "?" for unknown bits.
const char* trace_category_name(TraceCategory cat);

}  // namespace ppo::obs

// Instant event. Optional trailing args: up to two
// ppo::obs::TraceArg{"key", value} initializers, evaluated only when
// the category is enabled.
#define PPO_TRACE_EVENT(cat, name, origin, ...)                             \
  do {                                                                      \
    if (::ppo::obs::trace_enabled(cat))                                     \
      ::ppo::obs::detail::emit(cat, ::ppo::obs::TracePhase::kInstant, name, \
                               static_cast<std::uint32_t>(origin), 0, 0.0   \
                                   __VA_OPT__(, ) __VA_ARGS__);             \
  } while (0)

// Counter sample: a named value at the current sim time.
#define PPO_TRACE_COUNTER(cat, name, origin, value)                         \
  do {                                                                      \
    if (::ppo::obs::trace_enabled(cat))                                     \
      ::ppo::obs::detail::emit(cat, ::ppo::obs::TracePhase::kCounter, name, \
                               static_cast<std::uint32_t>(origin), 0,       \
                               static_cast<double>(value));                 \
  } while (0)

// Async span open/close; `id` correlates the pair (unique per open
// span, e.g. (node << 32) | exchange_id).
#define PPO_TRACE_SPAN_BEGIN(cat, name, origin, id, ...)                  \
  do {                                                                    \
    if (::ppo::obs::trace_enabled(cat))                                   \
      ::ppo::obs::detail::emit(cat, ::ppo::obs::TracePhase::kBegin, name, \
                               static_cast<std::uint32_t>(origin),        \
                               static_cast<std::uint64_t>(id), 0.0        \
                                   __VA_OPT__(, ) __VA_ARGS__);           \
  } while (0)

#define PPO_TRACE_SPAN_END(cat, name, origin, id, ...)                  \
  do {                                                                  \
    if (::ppo::obs::trace_enabled(cat))                                 \
      ::ppo::obs::detail::emit(cat, ::ppo::obs::TracePhase::kEnd, name, \
                               static_cast<std::uint32_t>(origin),      \
                               static_cast<std::uint64_t>(id), 0.0      \
                                   __VA_OPT__(, ) __VA_ARGS__);         \
  } while (0)
