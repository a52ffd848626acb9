// ProtocolHealth edge cases: zero denominators, retry-heavy merges of
// partial snapshots, saturating counter aggregation, and the field
// table every merge, comparison and registry projection loops over.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "experiments/figure_json.hpp"
#include "metrics/protocol_health.hpp"
#include "obs/metrics_registry.hpp"

namespace ppo::metrics {
namespace {

/// A record with a distinct value in every field (1, 2, 3, ... in
/// table order) — so a dropped or swapped field shows.
ProtocolHealth distinct_record(std::uint64_t scale = 1) {
  ProtocolHealth h;
  std::uint64_t value = 0;
  for (const HealthField& field : kHealthFields)
    h.*field.member = ++value * scale;
  return h;
}

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(ProtocolHealth, RatesAreZeroWithoutTraffic) {
  const ProtocolHealth h;
  EXPECT_EQ(h.completion_rate(), 0.0);
  EXPECT_EQ(h.delivery_rate(), 0.0);
}

TEST(ProtocolHealth, CompletionRateDiscountsRetries) {
  ProtocolHealth h;
  h.requests_sent = 10;   // includes 4 retransmissions
  h.request_retries = 4;  // -> 6 initiated exchanges
  h.exchanges_completed = 3;
  EXPECT_DOUBLE_EQ(h.completion_rate(), 0.5);
}

TEST(ProtocolHealth, CompletionRateClampsRetryExcess) {
  // A merge of partial snapshots can count a retry in one window and
  // its original request in another; the denominator must clamp to
  // zero instead of wrapping.
  ProtocolHealth h;
  h.requests_sent = 2;
  h.request_retries = 5;
  h.exchanges_completed = 2;
  EXPECT_EQ(h.completion_rate(), 0.0);
}

TEST(ProtocolHealth, DeliveryRate) {
  ProtocolHealth h;
  h.messages_sent = 8;
  h.messages_delivered = 6;
  EXPECT_DOUBLE_EQ(h.delivery_rate(), 0.75);
}

TEST(ProtocolHealth, TableNamesEveryFieldOnceWithAStoreFamily) {
  std::set<std::string> names;
  std::vector<std::uint64_t ProtocolHealth::*> members;
  for (const HealthField& field : kHealthFields) {
    const std::string name = field.name;
    EXPECT_TRUE(name.starts_with("protocol_") ||
                name.starts_with("transport_") ||
                name.starts_with("defense_") || name.starts_with("attack_"))
        << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(std::find(members.begin(), members.end(), field.member),
              members.end())
        << "duplicate member " << name;
    members.push_back(field.member);
  }
  EXPECT_EQ(names.size(), sizeof(ProtocolHealth) / sizeof(std::uint64_t));
}

TEST(ProtocolHealth, MergeSumsEveryCounter) {
  ProtocolHealth a = distinct_record();
  a.merge(distinct_record(10));
  const ProtocolHealth expected = distinct_record(11);
  for (const HealthField& field : kHealthFields)
    EXPECT_EQ(a.*field.member, expected.*field.member) << field.name;
  EXPECT_EQ(a, expected);
}

TEST(ProtocolHealth, EqualityComparesEveryTableField) {
  const ProtocolHealth base = distinct_record();
  for (const HealthField& field : kHealthFields) {
    ProtocolHealth changed = base;
    ++(changed.*field.member);
    EXPECT_NE(changed, base) << field.name;
  }
}

TEST(ProtocolHealth, ProjectionWritesEveryFieldUnderItsName) {
  const ProtocolHealth h = distinct_record();
  obs::MetricsRegistry registry;
  experiments::add_health_metrics(registry, h, {{"series", "x"}});
  const auto snap = registry.snapshot();
  for (const HealthField& field : kHealthFields) {
    const std::string key = obs::metric_key(field.name, {{"series", "x"}});
    const auto value = static_cast<double>(h.*field.member);
    if (field.kind == HealthKind::kTotal) {
      ASSERT_EQ(snap.counters.count(key), 1u) << key;
      EXPECT_EQ(snap.counters.at(key), h.*field.member) << key;
      EXPECT_EQ(snap.gauges.count(key), 0u) << key;
    } else {
      ASSERT_EQ(snap.gauges.count(key), 1u) << key;
      EXPECT_EQ(snap.gauges.at(key), value) << key;
      EXPECT_EQ(snap.counters.count(key), 0u) << key;
    }
  }
  // The three derived rates ride along as gauges.
  EXPECT_EQ(snap.gauges.at("protocol_completion_rate{series=x}"),
            h.completion_rate());
  EXPECT_EQ(snap.gauges.at("protocol_honest_completion_rate{series=x}"),
            h.honest_completion_rate());
  EXPECT_EQ(snap.gauges.at("transport_delivery_rate{series=x}"),
            h.delivery_rate());
  EXPECT_EQ(snap.counters.size() + snap.gauges.size(),
            std::size(kHealthFields) + 3);
}

TEST(ProtocolHealth, ProjectionSinceAdvancesTotalsByTheirGrowth) {
  const ProtocolHealth before = distinct_record();
  const ProtocolHealth now = distinct_record(3);
  obs::MetricsRegistry registry;
  experiments::add_health_metrics(registry, before);
  experiments::add_health_metrics(registry, now, {}, before);
  const auto snap = registry.snapshot();
  for (const HealthField& field : kHealthFields) {
    if (field.kind == HealthKind::kTotal)
      EXPECT_EQ(snap.counters.at(field.name), now.*field.member)
          << field.name;
    else  // a level is the latest value, not a sum
      EXPECT_EQ(snap.gauges.at(field.name),
                static_cast<double>(now.*field.member))
          << field.name;
  }
}

TEST(ProtocolHealth, MergeSaturatesInsteadOfWrapping) {
  ProtocolHealth a, b;
  a.messages_sent = kMax - 1;
  b.messages_sent = 5;
  a.merge(b);
  EXPECT_EQ(a.messages_sent, kMax);
  // Saturated again stays put.
  a.merge(b);
  EXPECT_EQ(a.messages_sent, kMax);
}

TEST(ProtocolHealth, MergeReturnsSelfForChaining) {
  ProtocolHealth a, b, c;
  b.requests_sent = 1;
  c.requests_sent = 2;
  EXPECT_EQ(a.merge(b).merge(c).requests_sent, 3u);
}

}  // namespace
}  // namespace ppo::metrics
