#include "obs/streaming_histogram.hpp"

#include <bit>
#include <cmath>

namespace ppo::obs {

StreamingHistogram::StreamingHistogram(const StreamingHistogram& other) {
  *this = other;
}

StreamingHistogram& StreamingHistogram::operator=(
    const StreamingHistogram& other) {
  if (this == &other) return *this;
  for (std::size_t i = 0; i < kBuckets; ++i)
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  count_.store(other.count_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  sum_bits_.store(other.sum_bits_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  max_bits_.store(other.max_bits_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  return *this;
}

std::size_t StreamingHistogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // <= 0 and NaN clamp low
  const double f = std::log2(value) * kSubBuckets;
  const double offset = std::floor(f) - double(kMinExp * kSubBuckets);
  if (offset < 0.0) return 0;
  if (offset >= double(kBuckets)) return kBuckets - 1;
  return static_cast<std::size_t>(offset);
}

double StreamingHistogram::bucket_upper_bound(std::size_t i) {
  return std::exp2(
      (double(i) + 1.0 + double(kMinExp * kSubBuckets)) / kSubBuckets);
}

void StreamingHistogram::observe(double value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Sum and max via CAS over bit patterns: atomic<double>::fetch_add
  // is C++20 but still libcall-heavy on some toolchains, and max has
  // no atomic primitive at all.
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  while (true) {
    const double desired = std::bit_cast<double>(expected) + value;
    if (sum_bits_.compare_exchange_weak(expected,
                                        std::bit_cast<std::uint64_t>(desired),
                                        std::memory_order_relaxed))
      break;
  }
  expected = max_bits_.load(std::memory_order_relaxed);
  while (std::bit_cast<double>(expected) < value) {
    if (max_bits_.compare_exchange_weak(expected,
                                        std::bit_cast<std::uint64_t>(value),
                                        std::memory_order_relaxed))
      break;
  }
}

StreamingHistogram::Snapshot StreamingHistogram::snapshot() const {
  Snapshot snap;
  // The count is the mass of the buckets read, not count_: observe()
  // bumps a bucket before count_, so a concurrent scrape could read
  // more count than bucket mass, and quantile() would then walk past
  // the last bucket.
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  snap.max = std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  return snap;
}

double StreamingHistogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Smallest bucket whose cumulative count covers q of the mass;
  // ceil() so q = 0 still needs at least one sample, matching
  // Histogram::quantile's "at least q of the mass" contract.
  const double target_mass = q * double(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (double(cumulative) >= target_mass && cumulative > 0)
      return bucket_upper_bound(i);
  }
  return bucket_upper_bound(kBuckets - 1);
}

}  // namespace ppo::obs
