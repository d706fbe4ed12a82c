// Indexed 4-ary min-heap: the order index behind DAS's runnable and deferred
// sets.
//
// Entries are (key, serial, slot), ordered by key with ties broken by serial
// — the record's arrival number, unique per record — so the order is total
// and exactly that of a std::set keyed on (key, serial). `slot` names the
// owning record in the scheduler's slab. Every time an entry moves, the heap
// writes its index into pos[slot], so the owner can erase any entry by slot
// in O(log n) without a search. The entries live in one vector that is never
// shrunk: once it has grown to the high-water mark, insert and erase
// allocate nothing (a node-based set allocates a tree node per insert).
//
// DAS needs exactly four operations — the minimum, insert, erase by position
// and re-key by position (a progress message moving a queued op) — at any
// depth from a handful of ops to the thousands an overloaded server queues,
// which is what a d-ary heap gives at O(log n). A re-key is one sift from
// where the entry sits, not an erase plus an insert.
// Four children per node keep the tree shallow and a node's children in one
// cache line.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace das::sched {

class OrderHeap {
 public:
  struct Entry {
    double key;
    std::uint64_t serial;
    std::uint32_t slot;
  };

  /// The order: true iff `a` comes before `b`.
  static bool before(const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.serial < b.serial;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  /// The minimum. Precondition: !empty().
  const Entry& top() const { return entries_.front(); }
  /// All entries in heap order (audits).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Inserts `e`; records the index of every moved entry in `pos`, which
  /// must be sized past every slot in the heap.
  void push(const Entry& e, std::vector<std::uint32_t>& pos) {
    entries_.push_back(e);
    sift_up(entries_.size() - 1, pos);
  }

  /// Removes the entry at index `i` (< size()).
  void erase(std::size_t i, std::vector<std::uint32_t>& pos) {
    const Entry last = entries_.back();
    entries_.pop_back();
    if (i == entries_.size()) return;
    entries_[i] = last;
    if (i > 0 && before(last, entries_[(i - 1) / kArity])) {
      sift_up(i, pos);
    } else {
      sift_down(i, pos);
    }
  }

  /// Gives the entry at index `i` (< size()) the key `key` and restores the
  /// order with one sift. The serial stays, so the order stays total.
  void update(std::size_t i, double key, std::vector<std::uint32_t>& pos) {
    const double old_key = entries_[i].key;
    entries_[i].key = key;
    if (key < old_key) {
      sift_up(i, pos);
    } else if (key > old_key) {
      sift_down(i, pos);
    }
  }

  /// Every entry comes no earlier than its parent.
  bool is_heap() const {
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (before(entries_[i], entries_[(i - 1) / kArity])) return false;
    }
    return true;
  }

 private:
  friend struct TestCorruptor;

  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i, std::vector<std::uint32_t>& pos) {
    const Entry e = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, entries_[parent])) break;
      entries_[i] = entries_[parent];
      pos[entries_[i].slot] = static_cast<std::uint32_t>(i);
      i = parent;
    }
    entries_[i] = e;
    pos[e.slot] = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i, std::vector<std::uint32_t>& pos) {
    const Entry e = entries_[i];
    const std::size_t n = entries_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(entries_[c], entries_[best])) best = c;
      }
      if (!before(entries_[best], e)) break;
      entries_[i] = entries_[best];
      pos[entries_[i].slot] = static_cast<std::uint32_t>(i);
      i = best;
    }
    entries_[i] = e;
    pos[e.slot] = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> entries_;
};

}  // namespace das::sched
