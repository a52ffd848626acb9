// CYCLON-style pseudonym cache (§III-D-1).
#include <gtest/gtest.h>

#include <set>

#include "overlay/cache.hpp"

namespace ppo::overlay {
namespace {

PseudonymRecord rec(PseudonymValue v, double expiry = 1000.0) {
  return PseudonymRecord{v, expiry};
}

TEST(Cache, InsertUpToCapacity) {
  PseudonymCache cache(3);
  Rng rng(1);
  cache.merge({rec(1), rec(2), rec(3), rec(4)}, /*own=*/99, {}, 0.0, rng);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(Cache, OwnPseudonymNeverCached) {
  PseudonymCache cache(10);
  Rng rng(1);
  cache.merge({rec(1), rec(42)}, /*own=*/42, {}, 0.0, rng);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(42));
}

TEST(Cache, ExpiredEntriesNotInserted) {
  PseudonymCache cache(10);
  Rng rng(1);
  cache.merge({rec(1, 5.0)}, 0, {}, /*now=*/6.0, rng);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, DuplicateKeepsLaterExpiry) {
  PseudonymCache cache(10);
  Rng rng(1);
  cache.merge({rec(1, 50.0)}, 0, {}, 0.0, rng);
  cache.merge({rec(1, 80.0)}, 0, {}, 0.0, rng);
  EXPECT_EQ(cache.size(), 1u);
  const auto snapshot = cache.snapshot(0.0);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot[0].expiry, 80.0);
}

TEST(Cache, SentEntriesArepreferredVictims) {
  PseudonymCache cache(3);
  Rng rng(1);
  cache.merge({rec(1), rec(2), rec(3)}, 0, {}, 0.0, rng);
  // Full; new entries should displace what we just sent (1 and 2).
  const std::vector<PseudonymRecord> sent{rec(1), rec(2)};
  cache.merge({rec(10), rec(11)}, 0, sent, 0.0, rng);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.contains(10));
  EXPECT_TRUE(cache.contains(11));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Cache, RandomEvictionWhenNoVictimsLeft) {
  PseudonymCache cache(2);
  Rng rng(1);
  cache.merge({rec(1), rec(2)}, 0, {}, 0.0, rng);
  cache.merge({rec(3)}, 0, {}, 0.0, rng);  // no sent-set: random victim
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.contains(3));
}

TEST(Cache, PurgeExpired) {
  PseudonymCache cache(10);
  Rng rng(1);
  cache.merge({rec(1, 10.0), rec(2, 20.0), rec(3, 30.0)}, 0, {}, 0.0, rng);
  cache.purge_expired(15.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(Cache, SelectRandomReturnsDistinctLiveEntries) {
  PseudonymCache cache(50);
  Rng rng(2);
  std::vector<PseudonymRecord> records;
  for (PseudonymValue v = 1; v <= 30; ++v)
    records.push_back(rec(v, v <= 10 ? 5.0 : 100.0));
  cache.merge(records, 0, {}, 0.0, rng);

  const auto picked = cache.select_random(15, /*now=*/6.0, rng);
  EXPECT_EQ(picked.size(), 15u);
  std::set<PseudonymValue> distinct;
  for (const auto& r : picked) {
    EXPECT_GT(r.value, 10u);  // expired ones were dropped
    distinct.insert(r.value);
  }
  EXPECT_EQ(distinct.size(), picked.size());
}

TEST(Cache, SelectRandomWhenAskingMoreThanSize) {
  PseudonymCache cache(10);
  Rng rng(3);
  cache.merge({rec(1), rec(2)}, 0, {}, 0.0, rng);
  EXPECT_EQ(cache.select_random(40, 0.0, rng).size(), 2u);
  EXPECT_TRUE(cache.select_random(0, 0.0, rng).empty());
}

TEST(Cache, SelectionIsRoughlyUniform) {
  PseudonymCache cache(20);
  Rng rng(4);
  std::vector<PseudonymRecord> records;
  for (PseudonymValue v = 0; v < 20; ++v) records.push_back(rec(v + 1));
  cache.merge(records, 0, {}, 0.0, rng);

  std::vector<std::size_t> counts(20, 0);
  for (int trial = 0; trial < 8000; ++trial)
    for (const auto& r : cache.select_random(5, 0.0, rng))
      ++counts[static_cast<std::size_t>(r.value - 1)];
  // Uniform 1/4 inclusion probability: allow generous chi-square.
  double chi2 = 0.0;
  const double expected = 8000.0 * 5 / 20;
  for (auto c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 60.0);
}

TEST(Cache, RejectsZeroCapacity) {
  EXPECT_THROW(PseudonymCache(0), CheckError);
  // The index names entries by position + 1 in two bytes.
  EXPECT_THROW(PseudonymCache(65536), CheckError);
  EXPECT_NO_THROW(PseudonymCache(65535));
}

}  // namespace
}  // namespace ppo::overlay
