// Log-structured storage engine.
//
// Writes append to an active segment; an in-memory index maps each key to
// its newest entry. When the active segment fills it is sealed, and when
// enough sealed segments accumulate they are compacted: live entries are
// rewritten into fresh segments, dead versions and tombstones dropped. The
// index can be rebuilt by replaying the segments in order (crash recovery),
// which the tests exercise as an invariant.
//
// This mirrors the write path of Bitcask/LSM-style stores closely enough to
// study engine-level effects (write amplification, space amplification,
// compaction debt) while staying deterministic and allocation-friendly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "store/hash_table.hpp"
#include "store/storage_engine.hpp"

namespace das::store {

struct LogEngineStats {
  std::uint64_t segments_sealed = 0;
  std::uint64_t compactions = 0;
  /// Entries rewritten by compaction (the write-amplification numerator).
  std::uint64_t entries_rewritten = 0;
  /// Entries dropped as dead (overwritten or tombstoned) by compaction.
  std::uint64_t entries_dropped = 0;
};

class LogStructuredEngine final : public KvStore {
 public:
  struct Options {
    /// Entries per segment before it is sealed.
    std::size_t segment_capacity = 4096;
    /// Compact once this many sealed segments exist.
    std::size_t compact_at_segments = 8;
  };

  explicit LogStructuredEngine(Options options);
  LogStructuredEngine() : LogStructuredEngine(Options{}) {}

  std::uint64_t put(KeyId key, Bytes size, SimTime now) override;
  std::optional<ValueRecord> get(KeyId key, SimTime now) override;
  const ValueRecord* peek(KeyId key) const override;
  bool erase(KeyId key) override;
  std::size_t key_count() const override { return live_keys_; }
  const StorageStats& stats() const override { return stats_; }
  /// No-op: segments fill and seal at their fixed capacity regardless.
  void reserve(std::size_t /*keys*/) override {}

  const LogEngineStats& log_stats() const { return log_stats_; }
  std::size_t segment_count() const { return sealed_.size() + 1; }
  /// Total entries across all segments (live + dead); space amplification
  /// is total_entries()/key_count().
  std::size_t total_entries() const;

  /// Drops the index and rebuilds it by replaying every segment in order —
  /// the crash-recovery path. The rebuilt state must be observationally
  /// identical (tests assert this).
  void recover();

 private:
  struct Entry {
    KeyId key = 0;
    ValueRecord record;
    bool tombstone = false;
  };
  struct Segment {
    std::vector<Entry> entries;
  };
  struct Location {
    std::uint32_t segment = 0;  // index into sealed_, or kActive
    std::uint32_t offset = 0;
  };
  static constexpr std::uint32_t kActive = 0xFFFFFFFF;

  const Entry& at(Location loc) const;
  void append(KeyId key, const ValueRecord& record, bool tombstone);
  void seal_active_if_full();
  void maybe_compact();

  Options options_;
  std::vector<Segment> sealed_;
  Segment active_;
  RobinHoodMap<Location> index_;
  std::size_t live_keys_ = 0;
  StorageStats stats_;
  LogEngineStats log_stats_;
};

}  // namespace das::store
