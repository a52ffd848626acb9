// Telemetry plane units: streaming log-bucketed histograms (bounded
// relative error on quantiles), Prometheus text exposition (format,
// grouping, escaping), the dependency-free HTTP server (exercised
// through a real socket), and the wall-clock sampling ticker (ring +
// JSONL export).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/streaming_histogram.hpp"
#include "runner/json.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/sampler.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define PPO_TEST_HAVE_SOCKETS 1
#endif

namespace {

using namespace ppo;

// Log-bucket resolution: 8 sub-buckets per octave => upper/lower
// bucket-edge ratio 2^(1/8), so a quantile estimate can overshoot the
// true value by at most that factor (plus nothing below: estimates
// are bucket upper bounds).
constexpr double kBucketRatio = 1.0905077326652577;  // 2^(1/8)

TEST(StreamingHistogram, CountSumMaxExact) {
  obs::StreamingHistogram hist;
  double sum = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    hist.observe(static_cast<double>(i));
    sum += static_cast<double>(i);
  }
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.sum, sum);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_DOUBLE_EQ(snap.mean(), sum / 1000.0);
}

TEST(StreamingHistogram, QuantilesWithinBucketResolution) {
  obs::StreamingHistogram hist;
  for (int i = 1; i <= 10000; ++i) hist.observe(static_cast<double>(i));
  const auto snap = hist.snapshot();
  const struct {
    double q;
    double expect;
  } cases[] = {{0.5, 5000.0}, {0.95, 9500.0}, {0.99, 9900.0}};
  for (const auto& c : cases) {
    const double est = snap.quantile(c.q);
    // The estimate is an upper bucket edge: never below the true
    // quantile, at most one bucket ratio above it.
    EXPECT_GE(est, c.expect * 0.999) << "q=" << c.q;
    EXPECT_LE(est, c.expect * kBucketRatio * 1.001) << "q=" << c.q;
  }
}

TEST(StreamingHistogram, WideDynamicRange) {
  obs::StreamingHistogram hist;
  // Microseconds to hours in one histogram — the point of log buckets.
  for (const double v : {1e-6, 1e-3, 1.0, 60.0, 3600.0}) hist.observe(v);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_GE(snap.quantile(1.0), 3600.0);
  EXPECT_LE(snap.quantile(0.2), 1e-6 * kBucketRatio);
}

TEST(StreamingHistogram, NonPositiveValuesLandInFirstBucket) {
  obs::StreamingHistogram hist;
  hist.observe(0.0);
  hist.observe(-5.0);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets[0], 2u);
  // The first bucket's upper bound is the smallest representable
  // estimate — tiny but not negative.
  EXPECT_GT(obs::StreamingHistogram::bucket_upper_bound(0), 0.0);
}

TEST(StreamingHistogram, BucketIndexMonotone) {
  std::size_t prev = 0;
  for (double v = 1e-7; v < 1e7; v *= 1.7) {
    const std::size_t idx = obs::StreamingHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    EXPECT_LT(idx, obs::StreamingHistogram::kBuckets);
    // The bucket's upper bound caps the value it was assigned for
    // (interior buckets; the clamped extremes saturate).
    if (idx > 0 && idx + 1 < obs::StreamingHistogram::kBuckets) {
      EXPECT_LE(v, obs::StreamingHistogram::bucket_upper_bound(idx) * 1.0001);
    }
    prev = idx;
  }
}

TEST(StreamingHistogram, EmptyQuantileIsZero) {
  const auto snap = obs::StreamingHistogram{}.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(telemetry::prometheus_name("events/sec.core-1"),
            "events_sec_core_1");
  EXPECT_EQ(telemetry::prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(telemetry::prometheus_name(""), "_");
  EXPECT_EQ(telemetry::prometheus_name("ok_name:sub"), "ok_name:sub");
}

TEST(Prometheus, LabelValueEscaping) {
  EXPECT_EQ(telemetry::prometheus_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");
}

TEST(Prometheus, RendersCountersGaugesWithTypeLines) {
  obs::MetricsRegistry registry;
  registry.add_counter("requests", 41);
  registry.add_counter("requests", 1);
  registry.set_gauge("online", 7.5);
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find("# TYPE requests counter\nrequests 42\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE online gauge\nonline 7.5\n"), std::string::npos)
      << text;
}

TEST(Prometheus, DimensionedCellsShareOneTypeLine) {
  obs::MetricsRegistry registry;
  registry.add_counter("shard_events", 10, {{"shard", "0"}});
  registry.add_counter("shard_events", 20, {{"shard", "1"}});
  const std::string text = telemetry::render_prometheus(registry);
  // One TYPE comment for the family, one sample per labelled cell.
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE shard_events", pos)) != std::string::npos) {
    ++type_lines;
    ++pos;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("shard_events{shard=\"0\"} 10\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("shard_events{shard=\"1\"} 20\n"), std::string::npos)
      << text;
}

TEST(Prometheus, StreamingHistogramExposition) {
  obs::MetricsRegistry registry;
  registry.observe("latency_seconds", 0.5);
  registry.observe("latency_seconds", 2.0);
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_seconds_sum 2.5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_seconds_count 2\n"), std::string::npos) << text;
  // Cumulative `le` buckets are monotone nondecreasing.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t prev = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("latency_seconds_bucket", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    const std::uint64_t cumulative = std::stoull(line.substr(space + 1));
    EXPECT_GE(cumulative, prev) << line;
    prev = cumulative;
  }
  EXPECT_EQ(prev, 2u);  // the +Inf bucket saw everything
}

TEST(Prometheus, ContentTypeIsTextFormat04) {
  EXPECT_EQ(std::string(telemetry::prometheus_content_type()),
            "text/plain; version=0.0.4; charset=utf-8");
}

#if defined(PPO_TEST_HAVE_SOCKETS)

/// Minimal blocking HTTP client for loopback: one request, reads to
/// connection close (the server sends Connection: close).
std::string http_get(std::uint16_t port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::send(fd, request_text.data(), request_text.size(), 0),
            static_cast<ssize_t>(request_text.size()));
  std::string response;
  char buf[2048];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

TEST(HttpServer, ServesMetricsOverRealSocket) {
  obs::MetricsRegistry registry;
  registry.add_counter("pings", 3);
  telemetry::HttpServer server(
      0, [&registry](const std::string& path) -> telemetry::HttpResponse {
        if (path == "/metrics")
          return {200, telemetry::prometheus_content_type(),
                  telemetry::render_prometheus(registry)};
        return {404, "text/plain; charset=utf-8", "not found\n"};
      });
  ASSERT_GT(server.port(), 0);  // ephemeral bind resolved

  const std::string response =
      http_get(server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("version=0.0.4"), std::string::npos) << response;
  EXPECT_NE(response.find("pings 3\n"), std::string::npos) << response;

  // Query strings are stripped before dispatch.
  const std::string with_query = http_get(
      server.port(), "GET /metrics?debug=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(with_query.find("pings 3\n"), std::string::npos);

  const std::string missing =
      http_get(server.port(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  const std::string post =
      http_get(server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 4u);
  server.stop();
  server.stop();  // idempotent
}

#endif  // PPO_TEST_HAVE_SOCKETS

TEST(SampleRing, KeepsMostRecentOldestFirst) {
  telemetry::SampleRing ring(3);
  for (int i = 0; i < 5; ++i) {
    telemetry::TelemetrySample sample;
    sample.wall_seconds = static_cast<double>(i);
    ring.push(sample);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_pushed(), 5u);
  const auto recent = ring.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_DOUBLE_EQ(recent[0].wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(recent[2].wall_seconds, 4.0);
}

TEST(TelemetryTicker, SamplesRegistryAndExportsJsonl) {
  const std::string path =
      testing::TempDir() + "/ppo_telemetry_ticker_test.jsonl";
  obs::MetricsRegistry registry;
  registry.add_counter("work_done", 17);
  registry.set_gauge("temperature", 21.5);
  registry.observe("latency", 0.25);
  {
    telemetry::TelemetryTicker::Options options;
    options.interval_seconds = 0.01;
    options.ring_capacity = 8;
    options.jsonl_path = path;
    telemetry::TelemetryTicker ticker(registry, options);
    // The stop() path takes a final sample, so even a zero-sleep run
    // exports at least one row; give the ticker a moment regardless.
    while (ticker.samples_taken() == 0) {
    }
    ticker.stop();
    EXPECT_GE(ticker.samples_taken(), 1u);
    EXPECT_GE(ticker.ring().size(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const runner::Json row = runner::Json::parse(line);  // throws on junk
    EXPECT_TRUE(row.contains("wall_seconds"));
    EXPECT_EQ(row.at("counters").at("work_done").as_int(), 17);
    EXPECT_DOUBLE_EQ(row.at("gauges").at("temperature").as_double(), 21.5);
    EXPECT_EQ(row.at("streaming").at("latency").at("count").as_int(), 1);
    ++rows;
  }
  EXPECT_GE(rows, 1u);
  std::remove(path.c_str());
}

// A JSONL row is the report envelope's `metrics` block plus the
// sample's wall clock: one renderer for both.
TEST(TelemetryTicker, RowIsTheMetricsBlockPlusWallClock) {
  obs::MetricsRegistry registry;
  registry.add_counter("work_done", 3, {{"shard", "1"}});
  registry.set_gauge("temperature", 1.5);
  registry.observe("latency", 0.5);
  telemetry::TelemetrySample sample;
  sample.wall_seconds = 2.0;
  sample.metrics = registry.snapshot();
  runner::Json expected = obs::to_json(sample.metrics);
  expected["wall_seconds"] = 2.0;
  EXPECT_EQ(telemetry::to_json(sample), expected);
}

TEST(TelemetryTicker, RingJsonlMatchesSampleCount) {
  obs::MetricsRegistry registry;
  telemetry::SampleRing ring(4);
  telemetry::TelemetrySample sample;
  sample.metrics = registry.snapshot();
  ring.push(sample);
  ring.push(sample);
  const std::string jsonl = ring.recent_jsonl();
  std::size_t lines = 0;
  for (const char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
}

}  // namespace
