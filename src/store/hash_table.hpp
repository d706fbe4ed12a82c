// Open-addressing Robin-Hood hash table, u64 keys.
//
// The storage engine's core index. Robin-Hood linear probing with
// backward-shift deletion keeps probe sequences short under high load
// factors and needs no tombstones. Header-only template so the engine can
// index arbitrary value records without indirection.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace das::store {

/// Mixes a 64-bit key to a well-distributed hash (SplitMix64 finaliser).
inline std::uint64_t mix_key(std::uint64_t k) {
  k ^= k >> 30;
  k *= 0xBF58476D1CE4E5B9ull;
  k ^= k >> 27;
  k *= 0x94D049BB133111EBull;
  k ^= k >> 31;
  return k;
}

template <typename V>
class RobinHoodMap {
 public:
  explicit RobinHoodMap(std::size_t initial_capacity = 16) {
    std::size_t cap = 16;
    while (cap < initial_capacity) cap <<= 1;
    slots_.resize(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }
  double load_factor() const {
    return static_cast<double>(size_) / static_cast<double>(slots_.size());
  }

  /// Inserts or overwrites; returns true if the key was newly inserted.
  bool put(std::uint64_t key, V value) {
    if ((size_ + 1) * 8 > slots_.size() * 7) rehash(slots_.size() * 2);  // load <= 7/8
    return insert_slot(key, std::move(value));
  }

  /// Grows (never shrinks) to the capacity that repeated put() would reach
  /// holding `count` keys, so inserting up to `count` keys does not rehash.
  void reserve(std::size_t count) {
    std::size_t cap = slots_.size();
    while (count * 8 > cap * 7) cap <<= 1;
    if (cap != slots_.size()) rehash(cap);
  }

  /// Pointer to the value, or nullptr. Stable only until the next mutation.
  V* find(std::uint64_t key) {
    const std::size_t idx = locate(key);
    return idx == npos ? nullptr : &slots_[idx].value;
  }
  const V* find(std::uint64_t key) const {
    const std::size_t idx = locate(key);
    return idx == npos ? nullptr : &slots_[idx].value;
  }

  bool contains(std::uint64_t key) const { return locate(key) != npos; }

  /// Removes the key; returns the removed value if it was present.
  std::optional<V> erase(std::uint64_t key) {
    std::size_t idx = locate(key);
    if (idx == npos) return std::nullopt;
    std::optional<V> out{std::move(slots_[idx].value)};
    // Backward-shift deletion: pull subsequent displaced entries back.
    const std::size_t mask = slots_.size() - 1;
    std::size_t next = (idx + 1) & mask;
    while (slots_[next].occupied && slots_[next].distance > 0) {
      slots_[idx] = std::move(slots_[next]);
      --slots_[idx].distance;
      idx = next;
      next = (next + 1) & mask;
    }
    slots_[idx] = Slot{};
    --size_;
    return out;
  }

  /// Visits every (key, value) pair; order unspecified.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : slots_)
      if (s.occupied) fn(s.key, s.value);
  }

  /// Longest probe distance currently in the table (diagnostics/tests).
  std::size_t max_probe_distance() const {
    std::size_t m = 0;
    for (const auto& s : slots_)
      if (s.occupied) m = std::max(m, static_cast<std::size_t>(s.distance));
    return m;
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct Slot {
    std::uint64_t key = 0;
    V value{};
    std::uint32_t distance = 0;  // probe distance from home slot
    bool occupied = false;
  };

  std::size_t home(std::uint64_t key) const {
    return mix_key(key) & (slots_.size() - 1);
  }

  std::size_t locate(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = home(key);
    std::uint32_t dist = 0;
    for (;;) {
      const Slot& s = slots_[idx];
      if (!s.occupied) return npos;
      if (s.key == key) return idx;
      // Robin-Hood invariant: once our probe distance exceeds the resident's,
      // the key cannot be further along.
      if (s.distance < dist) return npos;
      idx = (idx + 1) & mask;
      ++dist;
    }
  }

  bool insert_slot(std::uint64_t key, V value) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = home(key);
    std::uint32_t dist = 0;
    std::uint64_t cur_key = key;
    V cur_val = std::move(value);
    bool inserted_new = true;
    bool carrying_original = true;
    for (;;) {
      Slot& s = slots_[idx];
      if (!s.occupied) {
        s.key = cur_key;
        s.value = std::move(cur_val);
        s.distance = dist;
        s.occupied = true;
        ++size_;
        return inserted_new;
      }
      if (carrying_original && s.key == cur_key) {
        s.value = std::move(cur_val);
        return false;  // overwrite
      }
      if (s.distance < dist) {
        // Rob the rich: swap with the resident and keep probing for it.
        std::swap(cur_key, s.key);
        std::swap(cur_val, s.value);
        std::swap(dist, s.distance);
        carrying_original = false;
      }
      idx = (idx + 1) & mask;
      ++dist;
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    size_ = 0;
    for (auto& s : old)
      if (s.occupied) insert_slot(s.key, std::move(s.value));
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace das::store
