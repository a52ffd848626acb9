#include "obs/trace.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "common/logging.hpp"

namespace ppo::obs {

namespace {

// PPO_LOG(kTrace) sink: turns kTrace log messages into kLog records.
void trace_log_sink(const std::string& message) {
  detail::emit_log(kExternalOrigin, message);
}
// Tracks which tracer this thread's cached buffer belongs to, so a
// fresh install after an uninstall re-attaches instead of writing into
// a dead tracer's buffer. Keyed by a never-reused id, not the tracer's
// address: a tracer built where a destroyed one lived shares its
// address but not its buffers.
std::atomic<std::uint64_t> g_next_tracer_id{1};
thread_local std::uint64_t tls_owner = 0;
thread_local void* tls_buffer = nullptr;

struct CategoryName {
  std::uint32_t bit;
  const char* name;
};
constexpr CategoryName kCategoryNames[] = {
    {static_cast<std::uint32_t>(TraceCategory::kSim), "sim"},
    {static_cast<std::uint32_t>(TraceCategory::kShard), "shard"},
    {static_cast<std::uint32_t>(TraceCategory::kShuffle), "shuffle"},
    {static_cast<std::uint32_t>(TraceCategory::kPseudonym), "pseudonym"},
    {static_cast<std::uint32_t>(TraceCategory::kTransport), "transport"},
    {static_cast<std::uint32_t>(TraceCategory::kChurn), "churn"},
    {static_cast<std::uint32_t>(TraceCategory::kLog), "log"},
    {static_cast<std::uint32_t>(TraceCategory::kUser), "user"},
    {static_cast<std::uint32_t>(TraceCategory::kAdversary), "adversary"},
    {static_cast<std::uint32_t>(TraceCategory::kInference), "inference"},
    {static_cast<std::uint32_t>(TraceCategory::kDht), "dht"},
    {static_cast<std::uint32_t>(TraceCategory::kRouting), "routing"},
};
}  // namespace

Tracer::Tracer(std::size_t capacity_per_buffer, TraceSink* sink)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_per_buffer_(capacity_per_buffer),
      sink_(sink) {}

Tracer::Buffer* Tracer::attach_buffer() {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  return buffers_.back().get();
}

void Tracer::emit(TraceRecord&& record) {
  auto* buffer = static_cast<Buffer*>(tls_buffer);
  if (tls_owner != id_ || buffer == nullptr) {
    buffer = attach_buffer();
    tls_owner = id_;
    tls_buffer = buffer;
  }
  if (buffer->records.size() >= capacity_per_buffer_) {
    if (sink_ == nullptr) {
      ++buffer->dropped;
      return;
    }
    flush_buffer(*buffer);
  }
  record.seq = buffer->seq++;
  buffer->records.push_back(std::move(record));
}

void Tracer::flush_buffer(Buffer& buffer) {
  if (buffer.records.empty()) return;
  std::lock_guard<std::mutex> lock(sink_mutex_);
  flushed_ += buffer.records.size();
  sink_->write(std::move(buffer.records));
  buffer.records.clear();
}

void Tracer::flush_to_sink() {
  if (sink_ == nullptr) return;
  std::lock_guard<std::mutex> attach(attach_mutex_);
  for (const auto& b : buffers_) flush_buffer(*b);
}

std::vector<TraceRecord> Tracer::merged() const {
  std::vector<TraceRecord> out;
  {
    std::lock_guard<std::mutex> lock(attach_mutex_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->records.size();
    out.reserve(total);
    // Concatenation order = buffer attach order; the stable sort below
    // keeps it as the tie-break after (time, origin), yielding the
    // canonical (time, origin, attach_order, seq) order.
    for (const auto& b : buffers_)
      out.insert(out.end(), b->records.begin(), b->records.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.origin < b.origin;
                   });
  return out;
}

std::uint64_t Tracer::records_recorded() const {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  std::uint64_t n = records_flushed();
  for (const auto& b : buffers_) n += b->records.size();
  return n;
}

std::uint64_t Tracer::records_flushed() const {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  return flushed_;
}

std::uint64_t Tracer::records_dropped() const {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

void install_tracer(Tracer* tracer, std::uint32_t mask) {
  detail::g_tracer.store(tracer, std::memory_order_release);
  detail::g_trace_mask.store(tracer != nullptr ? mask : kTraceNone,
                             std::memory_order_release);
  const bool route_logs =
      tracer != nullptr &&
      (mask & static_cast<std::uint32_t>(TraceCategory::kLog)) != 0;
  set_trace_log_sink(route_logs ? &trace_log_sink : nullptr);
}

void uninstall_tracer() {
  set_trace_log_sink(nullptr);
  detail::g_trace_mask.store(kTraceNone, std::memory_order_release);
  detail::g_tracer.store(nullptr, std::memory_order_release);
}

std::uint32_t trace_mask() {
  return detail::g_trace_mask.load(std::memory_order_acquire);
}

std::uint32_t parse_trace_categories(const std::string& spec) {
  std::string s;
  for (char c : spec)
    if (!std::isspace(static_cast<unsigned char>(c)))
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s.empty() || s == "none" || s == "off") return kTraceNone;
  if (s == "all") return kTraceAll;
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string name = s.substr(pos, comma - pos);
    bool found = false;
    for (const auto& entry : kCategoryNames) {
      if (name == entry.name) {
        mask |= entry.bit;
        found = true;
        break;
      }
    }
    if (!found && !name.empty())
      throw std::invalid_argument("unknown trace category: " + name);
    pos = comma + 1;
  }
  return mask;
}

const char* trace_category_name(TraceCategory cat) {
  for (const auto& entry : kCategoryNames)
    if (entry.bit == static_cast<std::uint32_t>(cat)) return entry.name;
  return "?";
}

namespace detail {

namespace {
TraceRecord make_record(TraceCategory cat, TracePhase phase, const char* name,
                        std::uint32_t origin, std::uint64_t id, double value) {
  TraceRecord r;
  r.time = sim_time_context_active() ? sim_time_context() : 0.0;
  r.origin = origin;
  r.shard = g_trace_shard;
  r.category = cat;
  r.phase = phase;
  r.name = name;
  r.id = id;
  r.value = value;
  return r;
}

void dispatch(TraceRecord&& record) {
  Tracer* tracer = g_tracer.load(std::memory_order_acquire);
  if (tracer != nullptr) tracer->emit(std::move(record));
}
}  // namespace

void emit(TraceCategory cat, TracePhase phase, const char* name,
          std::uint32_t origin, std::uint64_t id, double value) {
  dispatch(make_record(cat, phase, name, origin, id, value));
}

void emit(TraceCategory cat, TracePhase phase, const char* name,
          std::uint32_t origin, std::uint64_t id, double value, TraceArg a0) {
  TraceRecord r = make_record(cat, phase, name, origin, id, value);
  r.args[0] = a0;
  dispatch(std::move(r));
}

void emit(TraceCategory cat, TracePhase phase, const char* name,
          std::uint32_t origin, std::uint64_t id, double value, TraceArg a0,
          TraceArg a1) {
  TraceRecord r = make_record(cat, phase, name, origin, id, value);
  r.args[0] = a0;
  r.args[1] = a1;
  dispatch(std::move(r));
}

void emit_log(std::uint32_t origin, std::string text) {
  TraceRecord r = make_record(TraceCategory::kLog, TracePhase::kInstant, "log",
                              origin, 0, 0.0);
  r.text = std::move(text);
  dispatch(std::move(r));
}

}  // namespace detail

}  // namespace ppo::obs
