// Small open-addressing hash map from uint64 keys to uint32 values,
// built for simulation hot paths: contiguous storage, no per-entry
// allocation, linear probing with backward-shift deletion. The table
// is allocated on the first insert, so a map that is never filled
// costs nothing but the object. Used by the population estimator's
// seen-pseudonym index and the CSR builder's edge set; the pseudonym
// cache keeps its own two-byte index with the same size rule and mix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace ppo {

/// SplitMix64 finalizer: full-avalanche mixing of a 64-bit key.
inline std::uint64_t mix64(std::uint64_t key) {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ULL;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBULL;
  key ^= key >> 31;
  return key;
}

/// Slot count of a linear-probing table sized for about `expected`
/// keys without growth: the next power of two at or above
/// max(16, 2 x expected), i.e. a load factor of at most 1/2.
std::size_t table_slots(std::size_t expected);

class FlatMap64 {
 public:
  /// Plans a table for about `expected` entries; the slots are
  /// allocated on the first insert.
  explicit FlatMap64(std::size_t expected = 16);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr when absent. Valid
  /// until the next insert/erase.
  std::uint32_t* find(std::uint64_t key);
  const std::uint32_t* find(std::uint64_t key) const;

  /// Inserts (key, value); the key must not be present.
  void insert(std::uint64_t key, std::uint32_t value);

  /// Removes `key`; returns false when absent.
  bool erase(std::uint64_t key);

  void clear();

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
    bool occupied = false;
  };

  std::size_t probe_start(std::uint64_t key) const {
    return static_cast<std::size_t>(mix64(key)) & mask_;
  }
  void grow();

  std::vector<Slot> slots_;
  /// Mask of the table size, planned before the table exists.
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ppo
