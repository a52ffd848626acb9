// Scrape-vs-update safety of MetricsRegistry: writers hammer
// counters, gauges and streaming histograms from many threads while a
// scraper thread repeatedly snapshots and renders the registry.
// Nothing here asserts timing — the point is that ThreadSanitizer
// (the CI tsan job runs MetricsConcurrency*) sees no race, and that
// commutative updates survive the contention bit-exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "telemetry/prometheus.hpp"

namespace {

using namespace ppo;

TEST(MetricsConcurrency, CountersSurviveConcurrentScrapes) {
  obs::MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kIncrements = 5000;
  std::atomic<bool> done{false};

  std::thread scraper([&] {
    std::size_t renders = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = registry.snapshot();
      const std::string text = telemetry::render_prometheus(snap);
      EXPECT_FALSE(text.empty() && !snap.empty());
      ++renders;
    }
    EXPECT_GT(renders, 0u);
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      const obs::MetricDims dims{{"writer", std::to_string(w)}};
      for (int i = 0; i < kIncrements; ++i) {
        registry.add_counter("shared_total", 1);
        registry.add_counter("per_writer_total", 1, dims);
        registry.set_gauge("last_i", static_cast<double>(i), dims);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("shared_total"),
            static_cast<std::uint64_t>(kWriters * kIncrements));
  for (int w = 0; w < kWriters; ++w)
    EXPECT_EQ(snap.counters.at("per_writer_total{writer=" +
                               std::to_string(w) + "}"),
              static_cast<std::uint64_t>(kIncrements));
}

TEST(MetricsConcurrency, StreamingObservationsUnderScrape) {
  obs::MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kObservations = 4000;
  std::atomic<bool> done{false};

  std::uint64_t scrapes = 0;
  std::uint64_t count_mismatches = 0;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = registry.snapshot();
      for (const auto& [key, hist] : snap.streaming) {
        (void)key;
        ++scrapes;
        // The count is exactly the bucket mass: a count ahead of the
        // buckets would send quantile() past the last bucket.
        std::uint64_t mass = 0;
        for (const std::uint64_t b : hist.buckets) mass += b;
        if (hist.count != mass) ++count_mismatches;
        // A torn snapshot could show quantiles wildly outside the
        // observed range; the lock-free buckets must never do that.
        if (hist.count > 0) {
          EXPECT_GE(hist.quantile(1.0), 0.001);
          EXPECT_LE(hist.quantile(0.0), 16.0 * 1.1);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry] {
      for (int i = 0; i < kObservations; ++i)
        registry.observe("latency_seconds",
                         0.001 * static_cast<double>(1 + (i % 16000)));
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(count_mismatches, 0u) << "of " << scrapes << " scrapes";

  const auto snap = registry.snapshot();
  const auto& hist = snap.streaming.at("latency_seconds");
  EXPECT_EQ(hist.count, static_cast<std::uint64_t>(kWriters * kObservations));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : hist.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist.count);  // no lost or double increments
}

TEST(MetricsConcurrency, LiveRegistryInstallDuringObservation) {
  // The call-site pattern: observers load the live pointer and write
  // through it while another thread installs/uninstalls. The pointer
  // swap must be race-free and observers must tolerate nullptr.
  obs::MetricsRegistry registry;
  std::atomic<bool> done{false};

  std::thread installer([&] {
    for (int i = 0; i < 500; ++i) {
      obs::install_live_metrics(&registry);
      obs::uninstall_live_metrics();
    }
    obs::install_live_metrics(&registry);
    done.store(true, std::memory_order_release);
  });

  std::uint64_t attempted = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (auto* live = obs::live_metrics()) {
      live->observe("maybe_live", 1.0);
      ++attempted;
    }
  }
  installer.join();
  obs::uninstall_live_metrics();
  const auto snap = registry.snapshot();
  if (attempted > 0) {
    EXPECT_EQ(snap.streaming.at("maybe_live").count, attempted);
  }
}

}  // namespace
