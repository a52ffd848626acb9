// Tracer contract: category parsing, zero side effects when disabled,
// bounded buffers, canonical merge order (including K-invariance of
// the merged stream under the sharded backend), and the exporters.
#include <gtest/gtest.h>

#include <fstream>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runner/json.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim_closures.hpp"

namespace ppo::obs {
namespace {

/// Installs a tracer for one test scope and always uninstalls.
class ScopedTracer {
 public:
  explicit ScopedTracer(std::uint32_t mask = kTraceAll,
                        std::size_t capacity = 1u << 16)
      : tracer_(capacity) {
    install_tracer(&tracer_, mask);
  }
  ~ScopedTracer() { uninstall_tracer(); }

  Tracer& tracer() { return tracer_; }

 private:
  Tracer tracer_;
};

TEST(TraceCategories, ParsesNamedSets) {
  EXPECT_EQ(parse_trace_categories(""), kTraceNone);
  EXPECT_EQ(parse_trace_categories("none"), kTraceNone);
  EXPECT_EQ(parse_trace_categories("off"), kTraceNone);
  EXPECT_EQ(parse_trace_categories("all"), kTraceAll);
  EXPECT_EQ(parse_trace_categories("shuffle"),
            static_cast<std::uint32_t>(TraceCategory::kShuffle));
  EXPECT_EQ(parse_trace_categories("shuffle,churn"),
            static_cast<std::uint32_t>(TraceCategory::kShuffle) |
                static_cast<std::uint32_t>(TraceCategory::kChurn));
  // Case and whitespace are forgiven.
  EXPECT_EQ(parse_trace_categories(" Shuffle , CHURN "),
            parse_trace_categories("shuffle,churn"));
  EXPECT_THROW(parse_trace_categories("bogus"), std::invalid_argument);
}

TEST(TraceCategories, NamesRoundTrip) {
  EXPECT_STREQ(trace_category_name(TraceCategory::kShuffle), "shuffle");
  EXPECT_STREQ(trace_category_name(TraceCategory::kPseudonym), "pseudonym");
  EXPECT_EQ(parse_trace_categories(trace_category_name(TraceCategory::kChurn)),
            static_cast<std::uint32_t>(TraceCategory::kChurn));
}

TEST(TraceMacros, DisabledSitesEvaluateNoArguments) {
  ASSERT_EQ(trace_mask(), kTraceNone);  // no tracer installed
  int evaluations = 0;
  const auto expensive = [&evaluations] {
    ++evaluations;
    return 1.0;
  };
  PPO_TRACE_COUNTER(TraceCategory::kUser, "c", 0, expensive());
  PPO_TRACE_EVENT(TraceCategory::kUser, "e", 0,
                  (TraceArg{"k", expensive()}));
  EXPECT_EQ(evaluations, 0);
}

TEST(TraceMacros, MaskFiltersCategories) {
  ScopedTracer scoped(static_cast<std::uint32_t>(TraceCategory::kChurn));
  PPO_TRACE_EVENT(TraceCategory::kChurn, "kept", 1);
  PPO_TRACE_EVENT(TraceCategory::kShuffle, "filtered", 1);
  const auto records = scoped.tracer().merged();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "kept");
  EXPECT_EQ(records[0].category, TraceCategory::kChurn);
}

TEST(TraceMacros, RecordsCarryContextAndArgs) {
  ScopedTracer scoped;
  set_sim_time_context(2.5);
  set_trace_shard(3);
  PPO_TRACE_SPAN_BEGIN(TraceCategory::kShuffle, "exchange", 7, 42,
                       (TraceArg{"target", 9.0}));
  PPO_TRACE_COUNTER(TraceCategory::kShard, "load", kExternalOrigin, 17.0);
  set_trace_shard(0);
  clear_sim_time_context();

  const auto records = scoped.tracer().merged();
  ASSERT_EQ(records.size(), 2u);
  // Canonical order puts origin 7 before the external origin.
  EXPECT_EQ(records[0].time, 2.5);
  EXPECT_EQ(records[0].origin, 7u);
  EXPECT_EQ(records[0].shard, 3u);
  EXPECT_EQ(records[0].phase, TracePhase::kBegin);
  EXPECT_EQ(records[0].id, 42u);
  EXPECT_STREQ(records[0].args[0].key, "target");
  EXPECT_EQ(records[0].args[0].value, 9.0);
  EXPECT_EQ(records[1].origin, kExternalOrigin);
  EXPECT_EQ(records[1].value, 17.0);
}

TEST(Tracer, BoundsBufferAndCountsDrops) {
  ScopedTracer scoped(kTraceAll, /*capacity=*/4);
  for (int i = 0; i < 10; ++i)
    PPO_TRACE_EVENT(TraceCategory::kUser, "e", i);
  EXPECT_EQ(scoped.tracer().records_recorded(), 4u);
  EXPECT_EQ(scoped.tracer().records_dropped(), 6u);
  EXPECT_EQ(scoped.tracer().merged().size(), 4u);
}

TEST(Tracer, MergeOrdersByTimeOriginSeq) {
  ScopedTracer scoped;
  set_sim_time_context(2.0);
  PPO_TRACE_EVENT(TraceCategory::kUser, "late", 1);
  set_sim_time_context(1.0);
  PPO_TRACE_EVENT(TraceCategory::kUser, "early-b", 9);
  PPO_TRACE_EVENT(TraceCategory::kUser, "early-a", 4);
  PPO_TRACE_EVENT(TraceCategory::kUser, "early-a2", 4);
  clear_sim_time_context();

  const auto records = scoped.tracer().merged();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_STREQ(records[0].name, "early-a");   // (1.0, 4, seq 0)
  EXPECT_STREQ(records[1].name, "early-a2");  // (1.0, 4, seq 1)
  EXPECT_STREQ(records[2].name, "early-b");   // (1.0, 9)
  EXPECT_STREQ(records[3].name, "late");      // (2.0, 1)
}

/// The merged stream of actor-emitted records must be identical for
/// every shard count: actors are pinned to shards, so (time, origin)
/// fully determines a record's merge position.
TEST(Tracer, MergedStreamIsShardCountInvariant) {
  using Key = std::tuple<double, std::uint32_t, std::string>;
  const std::size_t n = 12;
  std::vector<std::vector<Key>> per_k;

  for (const std::size_t shards : {1u, 2u, 4u}) {
    Tracer tracer;
    install_tracer(&tracer, kTraceAll);
    sim::ShardedSimulator::Options o;
    o.shards = shards;
    o.num_actors = n;
    o.lookahead = 1.0;
    sim::ShardedSimulator sim(o);
    sim::Closures ev(sim);
    for (sim::ActorId v = 0; v < n; ++v) {
      ev.at(v, 0.25, [&sim, &ev, v] {
        PPO_TRACE_EVENT(TraceCategory::kUser, "tick", v);
        // Cross-window self message: second record at a later time.
        ev.at(v, sim.now() + 1.0, [v] {
          PPO_TRACE_EVENT(TraceCategory::kUser, "tock", v);
        });
      });
    }
    sim.run_until(3.0);
    uninstall_tracer();

    std::vector<Key> keys;
    for (const auto& r : tracer.merged()) {
      if (r.origin == kExternalOrigin) continue;  // backend counters
      keys.emplace_back(r.time, r.origin, r.name);
    }
    ASSERT_EQ(keys.size(), 2 * n);
    per_k.push_back(std::move(keys));
  }
  EXPECT_EQ(per_k[0], per_k[1]);
  EXPECT_EQ(per_k[0], per_k[2]);
}

/// A tracer built at the address of a destroyed one must not inherit
/// this thread's cached buffer: that buffer died with the old tracer.
TEST(Tracer, TracerAtReusedAddressGetsItsOwnRecords) {
  alignas(Tracer) unsigned char storage[sizeof(Tracer)];
  std::vector<std::string> names[2];
  for (int round = 0; round < 2; ++round) {
    Tracer* tracer = new (storage) Tracer();
    install_tracer(tracer, kTraceAll);
    set_sim_time_context(1.0);
    PPO_TRACE_EVENT(TraceCategory::kUser, round == 0 ? "first" : "second", 1);
    clear_sim_time_context();
    uninstall_tracer();
    for (const auto& r : tracer->merged()) names[round].emplace_back(r.name);
    tracer->~Tracer();
  }
  EXPECT_EQ(names[0], std::vector<std::string>{"first"});
  EXPECT_EQ(names[1], std::vector<std::string>{"second"});
}

TEST(TraceExport, ChromeJsonIsValidAndJsonlRoundTrips) {
  ScopedTracer scoped;
  set_sim_time_context(0.5);
  PPO_TRACE_SPAN_BEGIN(TraceCategory::kShuffle, "exchange", 3, 99);
  set_sim_time_context(0.75);
  PPO_TRACE_SPAN_END(TraceCategory::kShuffle, "exchange", 3, 99);
  PPO_TRACE_COUNTER(TraceCategory::kShard, "window_events", kExternalOrigin,
                    5.0);
  clear_sim_time_context();
  const auto records = scoped.tracer().merged();

  const auto chrome = runner::Json::parse(chrome_trace_json(records));
  ASSERT_TRUE(chrome.contains("traceEvents"));
  ASSERT_EQ(chrome.at("traceEvents").size(), 3u);
  const auto& begin = chrome.at("traceEvents").at(0);
  EXPECT_EQ(begin.at("ph").as_string(), "b");
  EXPECT_EQ(begin.at("ts").as_double(), 0.5e6);
  EXPECT_EQ(begin.at("tid").as_uint(), 3u);

  const std::string jsonl = trace_jsonl(records);
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    const auto line = runner::Json::parse(jsonl.substr(start, end - start));
    EXPECT_TRUE(line.contains("t"));
    EXPECT_TRUE(line.contains("name"));
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3u);
}

/// Counts records handed over by buffer evictions, and checks each
/// batch preserves per-buffer emission order.
class CollectingSink : public TraceSink {
 public:
  void write(std::vector<TraceRecord>&& batch) override {
    ++batches;
    std::uint64_t last_seq = 0;
    for (const TraceRecord& record : batch) {
      if (!records.empty() || last_seq > 0) {
        EXPECT_GT(record.seq, last_seq);
      }
      last_seq = record.seq;
      records.push_back(record);
    }
  }

  std::size_t batches = 0;
  std::vector<TraceRecord> records;
};

TEST(TraceStreaming, FullBuffersEvictToSinkWithNoLoss) {
  CollectingSink sink;
  Tracer tracer(/*capacity_per_buffer=*/16, &sink);
  install_tracer(&tracer, kTraceAll);
  constexpr std::size_t kEvents = 1000;  // 62 evictions at capacity 16
  for (std::size_t i = 0; i < kEvents; ++i) {
    set_sim_time_context(static_cast<double>(i));
    PPO_TRACE_EVENT(TraceCategory::kUser, "tick",
                    static_cast<std::uint32_t>(i % 7));
  }
  clear_sim_time_context();
  uninstall_tracer();

  // Everything beyond capacity was evicted to the sink, nothing
  // dropped; the remainder is still resident.
  EXPECT_GT(sink.batches, 0u);
  EXPECT_EQ(tracer.records_dropped(), 0u);
  EXPECT_EQ(tracer.records_recorded(), kEvents);
  EXPECT_EQ(sink.records.size() + tracer.merged().size(), kEvents);
  EXPECT_EQ(tracer.records_flushed(), sink.records.size());

  tracer.flush_to_sink();
  EXPECT_EQ(sink.records.size(), kEvents);
  EXPECT_EQ(tracer.records_flushed(), kEvents);
  EXPECT_TRUE(tracer.merged().empty());

  // Single emitting thread: seq is a strict total order, so no record
  // was duplicated or reordered on its way through the sink.
  for (std::size_t i = 1; i < sink.records.size(); ++i)
    EXPECT_GT(sink.records[i].seq, sink.records[i - 1].seq);
}

TEST(TraceStreaming, WithoutSinkFullBuffersDrop) {
  Tracer tracer(/*capacity_per_buffer=*/16);
  install_tracer(&tracer, kTraceAll);
  for (std::size_t i = 0; i < 100; ++i)
    PPO_TRACE_EVENT(TraceCategory::kUser, "tick", 0);
  uninstall_tracer();
  EXPECT_EQ(tracer.merged().size(), 16u);
  EXPECT_EQ(tracer.records_dropped(), 84u);
  tracer.flush_to_sink();  // no sink: must be a safe no-op
  EXPECT_EQ(tracer.records_flushed(), 0u);
}

TEST(TraceStreaming, JsonlStreamSinkWritesEveryRecord) {
  const std::string path =
      ::testing::TempDir() + "/ppo_trace_stream_test.jsonl";
  constexpr std::size_t kEvents = 257;  // not a multiple of the capacity
  {
    JsonlStreamSink sink(path);
    Tracer tracer(/*capacity_per_buffer=*/32, &sink);
    install_tracer(&tracer, kTraceAll);
    for (std::size_t i = 0; i < kEvents; ++i) {
      set_sim_time_context(static_cast<double>(i) * 0.25);
      PPO_TRACE_EVENT(TraceCategory::kUser, "tick", 1,
                      (TraceArg{"i", static_cast<double>(i)}));
    }
    clear_sim_time_context();
    uninstall_tracer();
    tracer.flush_to_sink();
    sink.close();
    EXPECT_EQ(sink.lines_written(), kEvents);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto parsed = runner::Json::parse(line);
    EXPECT_TRUE(parsed.contains("t"));
    EXPECT_TRUE(parsed.contains("name"));
    ++lines;
  }
  EXPECT_EQ(lines, kEvents);
}

}  // namespace
}  // namespace ppo::obs
