// Bounded pseudonym cache with a CYCLON-style replacement policy
// (§III-D-1): a shuffle partner's entries first fill free space, then
// overwrite the entries we just sent to that partner, then random
// victims. Expired pseudonyms are purged on access.
//
// Entry storage and its value index are fixed-size blocks carved from
// a caller-owned Arena in service mode (one pool for all nodes, no
// per-node heap), or self-owned when constructed standalone (tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/io.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "privacylink/pseudonym.hpp"

namespace ppo::overlay {

using privacylink::PseudonymRecord;
using privacylink::PseudonymValue;

class PseudonymCache {
 public:
  /// The index names an entry by its position + 1 in two bytes.
  static constexpr std::size_t kMaxCapacity = 65535;

  /// Capacity must lie in [1, kMaxCapacity].
  explicit PseudonymCache(std::size_t capacity);
  PseudonymCache(Arena& arena, std::size_t capacity);

  PseudonymCache(PseudonymCache&&) noexcept = default;
  PseudonymCache& operator=(PseudonymCache&&) noexcept = default;
  PseudonymCache(const PseudonymCache&) = delete;
  PseudonymCache& operator=(const PseudonymCache&) = delete;

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return entries_.capacity(); }
  bool contains(PseudonymValue value) const;

  /// Selects up to `k` random distinct live entries (a shuffle
  /// message body). Expired entries encountered are dropped. Its
  /// index scratch belongs to the calling thread, not to the cache.
  std::vector<PseudonymRecord> select_random(std::size_t k, sim::Time now,
                                             Rng& rng);

  /// Merges a received shuffle set. `own` is this node's current
  /// pseudonym (never cached). `sent` is the set this node sent in
  /// the same exchange — the preferred victims when full.
  void merge(const std::vector<PseudonymRecord>& received,
             PseudonymValue own, std::span<const PseudonymRecord> sent,
             sim::Time now, Rng& rng);

  /// Drops all expired entries.
  void purge_expired(sim::Time now);

  /// Rate-limited purge used on the hot path.
  void maybe_purge(sim::Time now);

  /// Live entries (test/diagnostic use).
  std::vector<PseudonymRecord> snapshot(sim::Time now) const;

  /// Checkpoint/restore: every entry — expired ones included, since
  /// purge timing is part of the trajectory — plus the purge clock.
  /// The value index is rebuilt on load.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  std::size_t home_slot(PseudonymValue value) const;
  /// The index slot naming `value`'s entry, or the empty slot that
  /// ends its probe chain when `value` is absent.
  std::size_t find_slot(PseudonymValue value) const;
  /// The index slot naming the entry at `position`.
  std::size_t slot_of(std::size_t position) const;
  void insert_entry(const PseudonymRecord& record);
  void erase_at(std::size_t index);

  sim::Time last_purge_ = -1.0;
  FixedBlock<PseudonymRecord> entries_;
  /// value -> position in entries_, carved right after them: a linear
  /// probing table of table_slots(capacity) slots, each 0 when empty,
  /// else the entry's position + 1. Probes compare keys through
  /// entries_, so the table holds no keys of its own.
  FixedArray<std::uint16_t> slots_;
};

}  // namespace ppo::overlay
