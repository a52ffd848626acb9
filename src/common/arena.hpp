// Chunked bump allocator for simulation hot state.
//
// At crawl scale (10^6 nodes) the per-node containers — cache entries,
// sampler slots, pending-exchange sets — used to cost a dozen heap
// allocations per node plus allocator metadata. The overlay services
// instead carve all of it out of one Arena: node state lives exactly
// as long as the service, so nothing is ever freed individually and a
// bump pointer is the whole allocator. Chunks never relocate, so
// handed-out spans stay valid for the arena's lifetime (including
// across moves of the owning object).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace ppo {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 256 * 1024)
      : chunk_bytes_(chunk_bytes) {}

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Value-initialized span of `count` Ts. Only trivially destructible
  /// types: the arena never runs destructors.
  template <typename T>
  std::span<T> allocate_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destructed");
    if (count == 0) return {};
    T* first =
        static_cast<T*>(allocate_bytes(count * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (first + i) T{};
    return {first, count};
  }

  /// Bytes handed out (excluding alignment padding and chunk slack).
  std::size_t bytes_used() const { return used_; }
  /// Bytes reserved from the heap across all chunks.
  std::size_t bytes_reserved() const { return reserved_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate_bytes(std::size_t bytes, std::size_t align) {
    if (!chunks_.empty()) {
      Chunk& c = chunks_.back();
      const std::size_t aligned = (c.used + align - 1) & ~(align - 1);
      if (aligned + bytes <= c.size) {
        c.used = aligned + bytes;
        used_ += bytes;
        return c.data.get() + aligned;
      }
    }
    const std::size_t size = std::max(chunk_bytes_, bytes + align);
    Chunk c{std::make_unique<std::byte[]>(size), size, 0};
    // A fresh chunk from operator new[] is aligned for any fundamental
    // type; re-align the bump offset anyway for safety.
    const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    const std::size_t aligned = ((base + align - 1) & ~(align - 1)) - base;
    PPO_CHECK(aligned + bytes <= size);
    c.used = aligned + bytes;
    reserved_ += size;
    used_ += bytes;
    chunks_.push_back(std::move(c));
    return chunks_.back().data.get() + aligned;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_bytes_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
};

/// Fixed-length, value-initialized array carved from an arena (or
/// self-owned for standalone construction in tests).
template <typename T>
class FixedArray {
 public:
  FixedArray() = default;
  FixedArray(Arena& arena, std::size_t size)
      : storage_(arena.allocate_span<T>(size)) {}
  explicit FixedArray(std::size_t size)
      : owned_(size), storage_(owned_.data(), owned_.size()) {}

  // Moves keep spans valid (arena chunks and vector buffers do not
  // relocate on move); copies would alias the storage, so: no copies.
  FixedArray(FixedArray&&) noexcept = default;
  FixedArray& operator=(FixedArray&&) noexcept = default;
  FixedArray(const FixedArray&) = delete;
  FixedArray& operator=(const FixedArray&) = delete;

  std::size_t size() const { return storage_.size(); }
  T& operator[](std::size_t i) { return storage_[i]; }
  const T& operator[](std::size_t i) const { return storage_[i]; }
  std::span<T> span() { return storage_; }
  std::span<const T> span() const { return storage_; }

 private:
  std::vector<T> owned_;
  std::span<T> storage_;
};

/// Fixed-capacity record block on a FixedArray. The pooled
/// replacement for a per-exchange heap vector: one block per node,
/// reused by every exchange, zero steady-state allocation.
template <typename T>
class FixedBlock {
 public:
  FixedBlock() = default;
  FixedBlock(Arena& arena, std::size_t capacity) : storage_(arena, capacity) {}
  explicit FixedBlock(std::size_t capacity) : storage_(capacity) {}

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return storage_.size(); }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return storage_[i]; }
  const T& operator[](std::size_t i) const { return storage_[i]; }
  T& back() { return storage_[size_ - 1]; }
  const T& back() const { return storage_[size_ - 1]; }

  void clear() { size_ = 0; }
  void pop_back() {
    PPO_CHECK_MSG(size_ > 0, "pop_back on empty block");
    --size_;
  }
  void push_back(const T& value) {
    PPO_CHECK_MSG(size_ < storage_.size(), "fixed block overflow");
    storage_[size_++] = value;
  }

  /// Replaces the contents with `values` (must fit).
  void assign(std::span<const T> values) {
    PPO_CHECK_MSG(values.size() <= storage_.size(), "fixed block overflow");
    for (std::size_t i = 0; i < values.size(); ++i) storage_[i] = values[i];
    size_ = values.size();
  }

  std::span<const T> items() const { return storage_.span().first(size_); }

 private:
  FixedArray<T> storage_;
  std::size_t size_ = 0;
};

}  // namespace ppo
