// Open-addressing FlatMap64: correctness incl. backward-shift
// deletion, growth, and randomized differential testing against
// std::unordered_map.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/flat_map.hpp"
#include "common/rng.hpp"

namespace ppo {
namespace {

TEST(FlatMap, InsertFindErase) {
  FlatMap64 map;
  EXPECT_TRUE(map.empty());
  map.insert(42, 7);
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 7u);
  EXPECT_EQ(map.find(43), nullptr);
  EXPECT_TRUE(map.erase(42));
  EXPECT_FALSE(map.erase(42));
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, ValuePointerIsMutable) {
  FlatMap64 map;
  map.insert(1, 10);
  *map.find(1) = 20;
  EXPECT_EQ(*map.find(1), 20u);
}

TEST(FlatMap, ZeroKeySupported) {
  FlatMap64 map;
  map.insert(0, 5);
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(*map.find(0), 5u);
  EXPECT_TRUE(map.erase(0));
}

TEST(FlatMap, GrowsPastInitialCapacity) {
  FlatMap64 map(4);
  for (std::uint64_t k = 0; k < 1000; ++k) map.insert(k * 3 + 1, static_cast<std::uint32_t>(k));
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.find(k * 3 + 1), nullptr);
    EXPECT_EQ(*map.find(k * 3 + 1), k);
  }
}

TEST(FlatMap, NeverFilledTableAnswersWithoutSlots) {
  // The slots are allocated on the first insert; lookups, erases and
  // clears on a map that was never filled must work without them.
  FlatMap64 map(400);
  const FlatMap64& view = map;
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_EQ(view.find(0), nullptr);
  EXPECT_FALSE(map.erase(7));
  map.clear();
  EXPECT_TRUE(map.empty());
  map.insert(7, 3);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 3u);
}

TEST(FlatMap, Clear) {
  FlatMap64 map;
  for (std::uint64_t k = 1; k <= 50; ++k) map.insert(k, 0);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(10), nullptr);
  map.insert(10, 1);  // usable after clear
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, DifferentialAgainstStdUnorderedMap) {
  FlatMap64 map(32);
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  Rng rng(99);
  for (int op = 0; op < 50000; ++op) {
    // Small key space to force dense collision/deletion churn.
    const std::uint64_t key = rng.uniform_u64(256);
    const int action = static_cast<int>(rng.uniform_u64(3));
    if (action == 0) {
      if (reference.find(key) == reference.end()) {
        const auto value = static_cast<std::uint32_t>(op);
        map.insert(key, value);
        reference[key] = value;
      }
    } else if (action == 1) {
      EXPECT_EQ(map.erase(key), reference.erase(key) > 0);
    } else {
      const auto* found = map.find(key);
      const auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
}

}  // namespace
}  // namespace ppo
