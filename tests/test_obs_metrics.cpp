// Metrics registry: key rendering, counter/gauge/streaming semantics
// and the JSON projection the bench envelopes embed.
#include <gtest/gtest.h>

#include "obs/metrics_registry.hpp"
#include "runner/json.hpp"

namespace ppo::obs {
namespace {

TEST(MetricKey, RendersDimensionsInOrder) {
  EXPECT_EQ(metric_key("events", {}), "events");
  EXPECT_EQ(metric_key("events", {{"shard", "3"}}), "events{shard=3}");
  EXPECT_EQ(metric_key("events", {{"shard", "3"}, {"node", "17"}}),
            "events{shard=3,node=17}");
}

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.add_counter("sent", 3);
  registry.add_counter("sent", 4);
  registry.add_counter("sent", 1, {{"shard", "0"}});
  EXPECT_EQ(registry.counter("sent"), 7u);
  EXPECT_EQ(registry.counter("sent{shard=0}"), 1u);
  EXPECT_EQ(registry.counter("absent"), 0u);
  EXPECT_FALSE(registry.empty());
}

TEST(MetricsRegistry, GaugesKeepLatestValue) {
  MetricsRegistry registry;
  registry.set_gauge("rate", 0.25);
  registry.set_gauge("rate", 0.75);
  const auto gauges = registry.snapshot().gauges;
  ASSERT_EQ(gauges.count("rate"), 1u);
  EXPECT_EQ(gauges.at("rate"), 0.75);
}

TEST(MetricsRegistry, JsonProjectionCarriesAllSections) {
  MetricsRegistry registry;
  registry.add_counter("sent", 5, {{"series", "overlay"}});
  registry.set_gauge("completion", 0.5);
  for (int i = 1; i <= 4; ++i) registry.observe("latency", i);

  const auto doc = runner::Json::parse(to_json(registry).dump());
  EXPECT_EQ(doc.at("counters").at("sent{series=overlay}").as_uint(), 5u);
  EXPECT_EQ(doc.at("gauges").at("completion").as_double(), 0.5);
  const auto& latency = doc.at("streaming").at("latency");
  EXPECT_EQ(latency.at("count").as_uint(), 4u);
  EXPECT_EQ(latency.at("mean").as_double(), 2.5);
  EXPECT_TRUE(latency.contains("p50"));
  EXPECT_TRUE(latency.contains("p99"));
  EXPECT_EQ(latency.at("max").as_double(), 4.0);
  EXPECT_FALSE(doc.contains("histograms"));
}

}  // namespace
}  // namespace ppo::obs
