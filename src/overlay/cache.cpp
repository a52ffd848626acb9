#include "overlay/cache.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/check.hpp"
#include "common/flat_map.hpp"

namespace ppo::overlay {

namespace {

std::size_t checked_capacity(std::size_t capacity) {
  PPO_CHECK_MSG(capacity >= 1 && capacity <= PseudonymCache::kMaxCapacity,
                "cache capacity must be in [1, " +
                    std::to_string(PseudonymCache::kMaxCapacity) + "], got " +
                    std::to_string(capacity));
  return capacity;
}

}  // namespace

PseudonymCache::PseudonymCache(std::size_t capacity)
    : entries_(checked_capacity(capacity)), slots_(table_slots(capacity)) {}

PseudonymCache::PseudonymCache(Arena& arena, std::size_t capacity)
    : entries_(arena, checked_capacity(capacity)),
      slots_(arena, table_slots(capacity)) {}

std::size_t PseudonymCache::home_slot(PseudonymValue value) const {
  return static_cast<std::size_t>(mix64(value)) & (slots_.size() - 1);
}

std::size_t PseudonymCache::find_slot(PseudonymValue value) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(value);
  while (slots_[i] != 0 && entries_[slots_[i] - 1].value != value)
    i = (i + 1) & mask;
  return i;
}

std::size_t PseudonymCache::slot_of(std::size_t position) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(entries_[position].value);
  while (slots_[i] != position + 1) i = (i + 1) & mask;
  return i;
}

bool PseudonymCache::contains(PseudonymValue value) const {
  return slots_[find_slot(value)] != 0;
}

void PseudonymCache::insert_entry(const PseudonymRecord& record) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(record.value);
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = static_cast<std::uint16_t>(entries_.size() + 1);
  entries_.push_back(record);
}

void PseudonymCache::erase_at(std::size_t index) {
  // Backward-shift deletion: close the entry's slot so probe chains
  // stay unbroken without tombstones. A slot moves into the gap unless
  // its home lies cyclically in (gap, j].
  const std::size_t mask = slots_.size() - 1;
  std::size_t gap = slot_of(index);
  for (std::size_t j = (gap + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = home_slot(entries_[slots_[j] - 1].value);
    const bool between =
        gap < j ? (home > gap && home <= j) : (home > gap || home <= j);
    if (!between) {
      slots_[gap] = slots_[j];
      gap = j;
    }
  }
  slots_[gap] = 0;
  // The last entry fills the hole; its slot follows it.
  const std::size_t last = entries_.size() - 1;
  if (index != last) {
    slots_[slot_of(last)] = static_cast<std::uint16_t>(index + 1);
    entries_[index] = entries_[last];
  }
  entries_.pop_back();
}

void PseudonymCache::maybe_purge(sim::Time now) {
  // Purging is O(capacity); once per half shuffle period is plenty —
  // receivers independently discard expired records, so a stale entry
  // slipping into one shuffle set is harmless.
  if (now - last_purge_ < 0.5) return;
  last_purge_ = now;
  purge_expired(now);
}

std::vector<PseudonymRecord> PseudonymCache::select_random(std::size_t k,
                                                           sim::Time now,
                                                           Rng& rng) {
  maybe_purge(now);
  std::vector<PseudonymRecord> out;
  if (entries_.empty() || k == 0) return out;
  if (k >= entries_.size()) {
    out.assign(entries_.items().begin(), entries_.items().end());
    rng.shuffle(out);
    return out;
  }
  // Partial Fisher-Yates over an index array (hot path: runs twice
  // per shuffle exchange).
  thread_local std::vector<std::uint16_t> order;
  order.resize(entries_.size());
  std::iota(order.begin(), order.end(), std::uint16_t{0});
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_u64(order.size() - i));
    std::swap(order[i], order[j]);
    out.push_back(entries_[order[i]]);
  }
  return out;
}

void PseudonymCache::merge(const std::vector<PseudonymRecord>& received,
                           PseudonymValue own,
                           std::span<const PseudonymRecord> sent,
                           sim::Time now, Rng& rng) {
  maybe_purge(now);

  // Victim preference: the entries we just shipped to the partner
  // (CYCLON keeps the network's total information constant this way).
  std::size_t next_victim = sent.size();

  for (const auto& record : received) {
    if (record.value == own) continue;       // own pseudonym never cached
    if (!record.valid_at(now)) continue;     // already expired in flight
    if (const std::uint16_t slot = slots_[find_slot(record.value)]) {
      // Same value implies same pseudonym; keep the later expiry in
      // case of clock-skewed duplicates.
      PseudonymRecord& existing = entries_[slot - 1];
      existing.expiry = std::max(existing.expiry, record.expiry);
      continue;
    }
    if (entries_.size() < entries_.capacity()) {
      insert_entry(record);
      continue;
    }
    // Full: evict a sent entry first, then a random victim.
    bool evicted = false;
    while (next_victim > 0 && !evicted) {
      const std::uint16_t victim = slots_[find_slot(sent[--next_victim].value)];
      if (victim == 0) continue;  // already gone
      erase_at(victim - 1);
      evicted = true;
    }
    if (!evicted)
      erase_at(static_cast<std::size_t>(rng.uniform_u64(entries_.size())));
    insert_entry(record);
  }
}

void PseudonymCache::purge_expired(sim::Time now) {
  for (std::size_t i = 0; i < entries_.size();) {
    if (!entries_[i].valid_at(now))
      erase_at(i);
    else
      ++i;
  }
}

void PseudonymCache::save_state(ckpt::Writer& w) const {
  w.tag(0x43414348u);  // 'CACH'
  w.f64(last_purge_);
  w.size(entries_.size());
  for (const auto& record : entries_.items()) {
    w.u64(record.value);
    w.f64(record.expiry);
  }
}

void PseudonymCache::load_state(ckpt::Reader& r) {
  r.tag(0x43414348u);
  last_purge_ = r.f64();
  const std::size_t n = r.size();
  if (n > entries_.capacity())
    throw ckpt::ParseError("cache entries exceed capacity");
  entries_.clear();
  std::ranges::fill(slots_.span(), std::uint16_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    PseudonymRecord record;
    record.value = r.u64();
    record.expiry = r.f64();
    insert_entry(record);
  }
}

std::vector<PseudonymRecord> PseudonymCache::snapshot(sim::Time now) const {
  std::vector<PseudonymRecord> out;
  for (const auto& record : entries_.items())
    if (record.valid_at(now)) out.push_back(record);
  return out;
}

}  // namespace ppo::overlay
