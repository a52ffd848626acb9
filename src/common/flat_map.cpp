#include "common/flat_map.hpp"

#include <algorithm>

namespace ppo {

std::size_t table_slots(std::size_t expected) {
  const std::size_t wanted = std::max<std::size_t>(16, expected * 2);
  std::size_t p = 1;
  while (p < wanted) p <<= 1;
  return p;
}

FlatMap64::FlatMap64(std::size_t expected)
    : mask_(table_slots(expected) - 1) {}

std::uint32_t* FlatMap64::find(std::uint64_t key) {
  if (slots_.empty()) return nullptr;
  std::size_t i = probe_start(key);
  while (slots_[i].occupied) {
    if (slots_[i].key == key) return &slots_[i].value;
    i = (i + 1) & mask_;
  }
  return nullptr;
}

const std::uint32_t* FlatMap64::find(std::uint64_t key) const {
  return const_cast<FlatMap64*>(this)->find(key);
}

void FlatMap64::insert(std::uint64_t key, std::uint32_t value) {
  PPO_DCHECK(find(key) == nullptr);
  if (slots_.empty()) slots_.resize(mask_ + 1);
  if ((size_ + 1) * 2 > slots_.size()) grow();
  std::size_t i = probe_start(key);
  while (slots_[i].occupied) i = (i + 1) & mask_;
  slots_[i] = Slot{key, value, true};
  ++size_;
}

bool FlatMap64::erase(std::uint64_t key) {
  if (slots_.empty()) return false;
  std::size_t i = probe_start(key);
  while (slots_[i].occupied && slots_[i].key != key) i = (i + 1) & mask_;
  if (!slots_[i].occupied) return false;

  // Backward-shift deletion: close the gap so probe chains stay
  // unbroken without tombstones.
  std::size_t gap = i;
  std::size_t j = (i + 1) & mask_;
  while (slots_[j].occupied) {
    const std::size_t home = probe_start(slots_[j].key);
    // Move j into the gap if its home position does not lie strictly
    // between the gap and j (cyclically) — standard Robin-Hood shift.
    const bool between = ((gap < j) ? (home > gap && home <= j)
                                    : (home > gap || home <= j));
    if (!between) {
      slots_[gap] = slots_[j];
      gap = j;
    }
    j = (j + 1) & mask_;
  }
  slots_[gap] = Slot{};
  --size_;
  return true;
}

void FlatMap64::clear() {
  for (auto& slot : slots_) slot = Slot{};
  size_ = 0;
}

void FlatMap64::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  size_ = 0;
  for (const Slot& slot : old)
    if (slot.occupied) insert(slot.key, slot.value);
}

}  // namespace ppo
