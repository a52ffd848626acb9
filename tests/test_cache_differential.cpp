// Differential tests: PseudonymCache under long random operation
// sequences, checked for the invariants the CYCLON policy must
// preserve and, position by position, against a linear-scan reference
// model of the same policy making the same Rng draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "common/flat_map.hpp"
#include "overlay/cache.hpp"

namespace ppo::overlay {
namespace {

/// The cache policy over a plain vector, every lookup a linear scan:
/// the same victim order, the same swap-with-last erase and the same
/// Rng draws as PseudonymCache, without its hash index.
class ReferenceCache {
 public:
  explicit ReferenceCache(std::size_t capacity) : capacity_(capacity) {}

  const std::vector<PseudonymRecord>& entries() const { return entries_; }

  std::vector<PseudonymRecord> select_random(std::size_t k, sim::Time now,
                                             Rng& rng) {
    maybe_purge(now);
    std::vector<PseudonymRecord> out;
    if (entries_.empty() || k == 0) return out;
    if (k >= entries_.size()) {
      out = entries_;
      rng.shuffle(out);
      return out;
    }
    std::vector<std::size_t> order(entries_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + rng.uniform_u64(order.size() - i);
      std::swap(order[i], order[j]);
      out.push_back(entries_[order[i]]);
    }
    return out;
  }

  void merge(const std::vector<PseudonymRecord>& received,
             PseudonymValue own, const std::vector<PseudonymRecord>& sent,
             sim::Time now, Rng& rng) {
    maybe_purge(now);
    std::size_t next_victim = sent.size();
    for (const auto& record : received) {
      if (record.value == own || !record.valid_at(now)) continue;
      if (const std::size_t pos = find(record.value); pos != npos) {
        entries_[pos].expiry = std::max(entries_[pos].expiry, record.expiry);
        continue;
      }
      if (entries_.size() == capacity_) {
        bool evicted = false;
        while (next_victim > 0 && !evicted) {
          const std::size_t pos = find(sent[--next_victim].value);
          if (pos == npos) continue;
          erase_at(pos);
          evicted = true;
        }
        if (!evicted) erase_at(rng.uniform_u64(entries_.size()));
      }
      entries_.push_back(record);
    }
  }

  void purge_expired(sim::Time now) {
    for (std::size_t i = 0; i < entries_.size();) {
      if (!entries_[i].valid_at(now))
        erase_at(i);
      else
        ++i;
    }
  }

 private:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  std::size_t find(PseudonymValue value) const {
    for (std::size_t i = 0; i < entries_.size(); ++i)
      if (entries_[i].value == value) return i;
    return npos;
  }
  void erase_at(std::size_t i) {
    entries_[i] = entries_.back();
    entries_.pop_back();
  }
  void maybe_purge(sim::Time now) {
    if (now - last_purge_ < 0.5) return;
    last_purge_ = now;
    purge_expired(now);
  }

  std::size_t capacity_;
  std::vector<PseudonymRecord> entries_;
  sim::Time last_purge_ = -1.0;
};

/// Every entry, expired ones included, in storage order.
std::vector<PseudonymRecord> all_entries(const PseudonymCache& cache) {
  return cache.snapshot(-std::numeric_limits<double>::infinity());
}

/// Drives the cache and the model through `steps` random merges,
/// selections and purges over keys drawn from `keys`, comparing them
/// after every step.
void run_against_model(std::size_t capacity,
                       const std::vector<PseudonymValue>& keys,
                       std::uint64_t seed, int steps) {
  SCOPED_TRACE("capacity " + std::to_string(capacity));
  PseudonymCache cache(capacity);
  ReferenceCache model(capacity);
  Rng cache_rng(seed), model_rng(seed), workload(seed ^ 0x5EED);
  const PseudonymValue own = keys[workload.uniform_u64(keys.size())];
  const std::size_t max_batch = std::max<std::size_t>(2, capacity / 4);
  double now = 0.0;

  for (int step = 0; step < steps; ++step) {
    now += workload.uniform_double(0.0, 0.4);
    const std::size_t k = 1 + workload.uniform_u64(max_batch);
    const int action = static_cast<int>(workload.uniform_u64(10));
    if (action < 7) {
      std::vector<PseudonymRecord> received;
      const std::size_t count = 1 + workload.uniform_u64(max_batch);
      for (std::size_t i = 0; i < count; ++i)
        received.push_back({keys[workload.uniform_u64(keys.size())],
                            now + workload.uniform_double(-1.0, 12.0)});
      const auto sent = cache.select_random(k, now, cache_rng);
      ASSERT_EQ(sent, model.select_random(k, now, model_rng));
      cache.merge(received, own, sent, now, cache_rng);
      model.merge(received, own, sent, now, model_rng);
    } else if (action < 9) {
      ASSERT_EQ(cache.select_random(k, now, cache_rng),
                model.select_random(k, now, model_rng));
    } else {
      cache.purge_expired(now);
      model.purge_expired(now);
    }
    ASSERT_EQ(all_entries(cache), model.entries()) << "step " << step;
    for (const PseudonymValue key : keys) {
      const bool cached =
          std::any_of(model.entries().begin(), model.entries().end(),
                      [key](const PseudonymRecord& r) { return r.value == key; });
      ASSERT_EQ(cache.contains(key), cached) << "step " << step;
    }
  }
}

std::vector<PseudonymValue> random_keys(std::size_t count, Rng& rng) {
  std::vector<PseudonymValue> keys;
  while (keys.size() < count) keys.push_back(rng.next_u64() >> 8);
  return keys;
}

TEST(CacheDifferential, MatchesReferenceModelPositionByPosition) {
  Rng rng(303);
  for (const std::size_t capacity : {1u, 3u, 24u, 400u}) {
    // Three times as many keys as slots: merges hit cached keys,
    // fill free space and evict, in about equal measure.
    const auto keys = random_keys(3 * capacity + 2, rng);
    run_against_model(capacity, keys, 1000 + capacity,
                      capacity == 400 ? 1500 : 3000);
  }
}

TEST(CacheDifferential, MatchesReferenceModelWhenChainsWrapTheTable) {
  // Keys whose home slots are the table's last two and first two, so
  // probe chains run off the end and wrap to slot 0, and backward-shift
  // deletion moves slots across the boundary.
  for (const std::size_t capacity : {3u, 24u}) {
    const std::size_t slots = table_slots(capacity);
    std::vector<PseudonymValue> keys;
    std::size_t per_home[4] = {0, 0, 0, 0};
    for (PseudonymValue v = 1; keys.size() < 2 * capacity + 4; ++v) {
      const std::size_t home = mix64(v) & (slots - 1);
      const std::size_t bucket = home >= slots - 2 ? home - (slots - 2)
                                 : home < 2       ? home + 2
                                                  : 4;
      if (bucket == 4 || per_home[bucket] * 4 >= 2 * capacity + 4) continue;
      ++per_home[bucket];
      keys.push_back(v);
    }
    run_against_model(capacity, keys, 2000 + capacity, 3000);
  }
}

TEST(CacheDifferential, InvariantsUnderRandomWorkload) {
  const std::size_t kCapacity = 24;
  PseudonymCache cache(kCapacity);
  Rng rng(101);

  // Reference bookkeeping: everything ever inserted with its expiry.
  std::set<PseudonymValue> ever_offered;
  double now = 0.0;
  const PseudonymValue own = 0xAAAA;

  for (int round = 0; round < 2000; ++round) {
    now += 0.7;
    // Compose a random received set (some fresh, some repeats, some
    // already expired, occasionally own).
    std::vector<PseudonymRecord> received;
    const std::size_t count = 1 + rng.uniform_u64(8);
    for (std::size_t i = 0; i < count; ++i) {
      PseudonymRecord r;
      const int kind = static_cast<int>(rng.uniform_u64(10));
      if (kind == 0) {
        r = {own, now + 50.0};
      } else if (kind == 1) {
        r = {rng.next_u64(), now - 1.0};  // already expired
      } else {
        r = {rng.next_u64() >> 16, now + 5.0 + rng.uniform_double() * 60.0};
      }
      received.push_back(r);
      ever_offered.insert(r.value);
    }
    const auto sent = cache.select_random(4, now, rng);
    cache.merge(received, own, sent, now, rng);

    // Invariant 1: bounded.
    ASSERT_LE(cache.size(), kCapacity);
    // Invariant 2: own value never cached.
    ASSERT_FALSE(cache.contains(own));
    // Invariant 3: everything in the cache was offered at some point
    // and is not long-expired (the rate-limited purge allows at most
    // one period of staleness).
    for (const auto& record : cache.snapshot(now)) {
      ASSERT_TRUE(ever_offered.count(record.value));
      ASSERT_GT(record.expiry, now);
    }
    // Invariant 4: selections return distinct live records.
    const auto sel = cache.select_random(6, now, rng);
    std::set<PseudonymValue> distinct;
    for (const auto& record : sel) {
      ASSERT_TRUE(distinct.insert(record.value).second);
      ASSERT_TRUE(record.valid_at(now));
    }
  }
}

TEST(CacheDifferential, FreshInsertsPreferEvictingSentEntries) {
  // Statistical check of the CYCLON victim preference: run many
  // full-cache merges; entries that were "sent" must vanish far more
  // often than bystanders.
  Rng rng(202);
  std::size_t sent_evictions = 0, bystander_evictions = 0;
  const int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    PseudonymCache cache(10);
    std::vector<PseudonymRecord> fill;
    for (PseudonymValue v = 1; v <= 10; ++v)
      fill.push_back({v + static_cast<PseudonymValue>(trial) * 100, 1000.0});
    cache.merge(fill, 0, {}, 0.0, rng);

    // "Send" the first three, then merge three fresh records.
    const std::vector<PseudonymRecord> sent(fill.begin(), fill.begin() + 3);
    std::vector<PseudonymRecord> fresh;
    for (int i = 0; i < 3; ++i) fresh.push_back({rng.next_u64(), 1000.0});
    cache.merge(fresh, 0, sent, 0.0, rng);

    for (const auto& record : sent)
      sent_evictions += !cache.contains(record.value);
    for (auto it = fill.begin() + 3; it != fill.end(); ++it)
      bystander_evictions += !cache.contains(it->value);
  }
  // All three sent entries should be the victims virtually always.
  EXPECT_GT(sent_evictions, static_cast<std::size_t>(kTrials) * 3 * 9 / 10);
  EXPECT_LT(bystander_evictions, static_cast<std::size_t>(kTrials) / 10);
}

}  // namespace
}  // namespace ppo::overlay
