// The telemetry plane's hard contract: a fixed-horizon service-mode
// run produces a bit-identical trajectory fingerprint with telemetry
// fully on (HTTP exposition + JSONL sampling + shard profiling) or
// fully off — for every K, K = 1 (the serial case) included. The
// plane only reads simulation state; these tests are what pins that.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "metrics/protocol_health.hpp"
#include "obs/metrics_registry.hpp"
#include "runner/json.hpp"
#include "telemetry/service_mode.hpp"

namespace {

using namespace ppo;

telemetry::ServiceModeOptions base_options(std::size_t shards) {
  telemetry::ServiceModeOptions opt;
  opt.nodes = 300;
  opt.alpha = 0.6;
  opt.seed = 7;
  opt.shards = shards;
  opt.horizon = 5.0;
  opt.slice = 1.0;
  // All-arms workload so every instrumentation seam is live: link
  // faults, a defended mixed adversary and a passive observer.
  opt.loss = 0.05;
  opt.adversary_fraction = 0.1;
  opt.adversary_attack = "mixed";
  opt.defended = true;
  opt.observer_coverage = 0.2;
  return opt;
}

telemetry::ServiceModeOptions with_telemetry(
    telemetry::ServiceModeOptions opt, const std::string& jsonl,
    bool profile = true) {
  opt.port = 0;  // ephemeral: exercises the real server lifecycle
  opt.telemetry_out = jsonl;
  opt.sample_interval_seconds = 0.005;
  opt.profile = profile;
  return opt;
}

void expect_identical(const telemetry::ServiceModeReport& off,
                      const telemetry::ServiceModeReport& on) {
  EXPECT_EQ(off.fingerprint, on.fingerprint);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.overlay_edges, on.overlay_edges);
  EXPECT_EQ(off.online, on.online);
  EXPECT_EQ(off.health.requests_sent, on.health.requests_sent);
  EXPECT_EQ(off.health.messages_delivered, on.health.messages_delivered);
  EXPECT_EQ(off.health.exchanges_completed, on.health.exchanges_completed);
  EXPECT_TRUE(off.horizon_reached);
  EXPECT_TRUE(on.horizon_reached);
}

// The serial case: K = 1 with the plane on but shard profiling off.
TEST(ServiceModeDeterminism, TelemetryOnEqualsOffSerial) {
  const auto off = telemetry::run_service_mode(base_options(1));
  const std::string jsonl =
      testing::TempDir() + "/ppo_service_serial.jsonl";
  const auto on = telemetry::run_service_mode(
      with_telemetry(base_options(1), jsonl, /*profile=*/false));
  expect_identical(off, on);
  EXPECT_GT(on.port, 0);
  EXPECT_GE(on.samples_taken, 1u);
  std::remove(jsonl.c_str());
}

TEST(ServiceModeDeterminism, TelemetryOnEqualsOffK1) {
  const auto off = telemetry::run_service_mode(base_options(1));
  const std::string jsonl = testing::TempDir() + "/ppo_service_k1.jsonl";
  const auto on =
      telemetry::run_service_mode(with_telemetry(base_options(1), jsonl));
  expect_identical(off, on);
  std::remove(jsonl.c_str());
}

TEST(ServiceModeDeterminism, TelemetryOnEqualsOffK4AndK4EqualsK1) {
  const auto off1 = telemetry::run_service_mode(base_options(1));
  const auto off4 = telemetry::run_service_mode(base_options(4));
  const std::string jsonl = testing::TempDir() + "/ppo_service_k4.jsonl";
  const auto on4 =
      telemetry::run_service_mode(with_telemetry(base_options(4), jsonl));
  // Sharded K-invariance holds with the plane attached: K=4 + full
  // telemetry matches both K=4 and K=1 without it.
  expect_identical(off4, on4);
  expect_identical(off1, on4);

  // The JSONL time-series came out well-formed and the final sample's
  // counters carry the run's protocol totals.
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.is_open());
  std::string line, last;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    last = line;
    ++rows;
  }
  ASSERT_GE(rows, 1u);
  const runner::Json row = runner::Json::parse(last);
  EXPECT_EQ(
      static_cast<std::uint64_t>(row.at("counters").at("sim_events").as_int()),
      on4.events);
  std::remove(jsonl.c_str());
}

TEST(ServiceModeDeterminism, RerunIsBitIdentical) {
  // Same options, fresh process state: the fingerprint is a pure
  // function of (options, seed).
  const auto a = telemetry::run_service_mode(base_options(2));
  const auto b = telemetry::run_service_mode(base_options(2));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events, b.events);
}

TEST(ServiceModeDeterminism, FinalSnapshotCarriesStreamingQuantiles) {
  const std::string jsonl = testing::TempDir() + "/ppo_service_snap.jsonl";
  const auto report =
      telemetry::run_service_mode(with_telemetry(base_options(2), jsonl));
  // The shuffle-latency seam fed the live registry during the run.
  const auto it =
      report.metrics.streaming.find("overlay_exchange_latency_seconds");
  ASSERT_NE(it, report.metrics.streaming.end());
  EXPECT_GT(it->second.count, 0u);
  EXPECT_GT(it->second.p95(), 0.0);
  // Slice-boundary counters aggregated to the run totals.
  EXPECT_EQ(report.metrics.counters.at("sim_events"), report.events);
  EXPECT_EQ(report.metrics.counters.at("protocol_requests_sent"),
            report.health.requests_sent);
  std::remove(jsonl.c_str());
}

// The slice refresh exports the whole health record: a run that
// started cold ends with every total equal to its field and the level
// as a gauge. The refresh runs with the telemetry plane off too.
TEST(ServiceModeDeterminism, FinalCountersEqualEveryHealthTotal) {
  const auto report = telemetry::run_service_mode(base_options(2));
  ASSERT_FALSE(report.resumed);
  for (const metrics::HealthField& field : metrics::kHealthFields) {
    const std::uint64_t value = report.health.*field.member;
    if (field.kind == metrics::HealthKind::kTotal) {
      ASSERT_EQ(report.metrics.counters.count(field.name), 1u) << field.name;
      EXPECT_EQ(report.metrics.counters.at(field.name), value) << field.name;
    } else {
      ASSERT_EQ(report.metrics.gauges.count(field.name), 1u) << field.name;
      EXPECT_EQ(report.metrics.gauges.at(field.name),
                static_cast<double>(value))
          << field.name;
    }
  }
  // The workload's arms actually moved the attack and defense totals.
  EXPECT_GT(report.health.forged_injected, 0u);
  EXPECT_GT(report.health.forged_rejected, 0u);
}

// --loss arms the shuffle timeout and its retry: lost exchanges are
// timed out and retried rather than left pending until the next tick.
TEST(ServiceMode, LossArmsShuffleTimeoutsAndRetries) {
  telemetry::ServiceModeOptions opt;
  opt.nodes = 300;
  opt.alpha = 0.6;
  opt.seed = 7;
  opt.shards = 1;
  opt.horizon = 5.0;
  opt.loss = 0.05;
  const auto lossy = telemetry::run_service_mode(opt);
  EXPECT_GT(lossy.health.request_timeouts, 0u);
  EXPECT_GT(lossy.health.request_retries, 0u);

  opt.loss = 0.0;
  const auto clean = telemetry::run_service_mode(opt);
  EXPECT_EQ(clean.health.request_timeouts, 0u);
  EXPECT_EQ(clean.health.request_retries, 0u);
}

}  // namespace
