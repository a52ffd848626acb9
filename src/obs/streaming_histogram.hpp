// Lock-free streaming histogram over log-spaced buckets, the live
// counterpart of common/histogram.hpp's sparse integer Histogram.
//
// Built for the telemetry plane: worker threads observe() values
// (latencies in seconds, hop counts, queue depths) with one relaxed
// atomic increment per sample while a scrape thread snapshots the
// buckets concurrently — no mutex, no allocation, race-free under
// TSan. Quantile estimates come from the bucket boundaries, so their
// relative error is bounded by the bucket growth factor
// (2^(1/8) - 1 ~ 9%), which is plenty for p50/p95/p99/p99.9 gauges.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppo::obs {

class StreamingHistogram {
 public:
  /// 8 sub-buckets per power of two between 2^kMinExp and 2^kMaxExp:
  /// ~60 nanoseconds to ~10^12 when samples are latencies in seconds
  /// (and plenty of headroom for counts — hops, queue depths), with
  /// out-of-range samples clamped into the edge buckets. 512 buckets
  /// = 4 KiB of atomics per histogram.
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -24;
  static constexpr int kMaxExp = 40;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>((kMaxExp - kMinExp) * kSubBuckets);

  StreamingHistogram() = default;

  /// Deep value copy (relaxed loads). Only meaningful at quiescent
  /// points — registries are copied when benches return them by value,
  /// never while workers observe.
  StreamingHistogram(const StreamingHistogram& other);
  StreamingHistogram& operator=(const StreamingHistogram& other);

  /// Records one sample. Thread-safe and lock-free: one bucket
  /// fetch_add plus CAS loops for the sum/max cells.
  void observe(double value);

  /// Bucket index a value lands in (clamped to the edge buckets;
  /// values <= 0 land in bucket 0).
  static std::size_t bucket_index(double value);

  /// Exclusive upper bound of bucket `i` (the Prometheus `le` value).
  static double bucket_upper_bound(std::size_t i);

  /// Point-in-time copy, safe to take while other threads observe.
  /// `count` always equals the sum of `buckets`; sum and max may lag or
  /// lead them by in-flight samples (never torn).
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    bool empty() const { return count == 0; }
    double mean() const { return count == 0 ? 0.0 : sum / double(count); }
    /// Upper bound of the first bucket holding quantile q of the mass
    /// (0 when empty). q outside [0,1] is clamped.
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }
  };
  Snapshot snapshot() const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  /// Stored as bit patterns so CAS loops work pre-atomic<double>
  /// fetch_add; see observe().
  std::atomic<std::uint64_t> sum_bits_{0};
  std::atomic<std::uint64_t> max_bits_{0};
};

}  // namespace ppo::obs
