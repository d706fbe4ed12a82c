// In-memory key-value storage engine over the Robin-Hood table.
//
// Stores value records (size, version, timestamps). No simulated server runs
// it: servers read hits and sizes from the cluster's ReplicaTable
// (replica_table.hpp). The engine remains as the per-server reference the
// table's tests replay against, and as the subject of the benchmark's store
// microbenchmark.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "store/hash_table.hpp"

namespace das::store {

/// One stored value's metadata. Payload bytes themselves are not
/// materialised — size/version/timestamps are what the scheduling study
/// observes — but the record is laid out so a payload pointer drops in.
struct ValueRecord {
  Bytes size = 0;
  std::uint64_t version = 0;
  SimTime created_at = 0;
  SimTime updated_at = 0;
};

struct StorageStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t puts = 0;
  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t deletes = 0;
  Bytes resident_bytes = 0;
};

/// Hash-table engine: Robin-Hood open addressing, O(1) everything, values
/// updated in place.
class StorageEngine {
 public:
  /// Inserts or overwrites `key`. The version is bumped on every put.
  /// Returns the new version.
  std::uint64_t put(KeyId key, Bytes size, SimTime now);

  /// Looks up `key`; counts a hit or miss.
  std::optional<ValueRecord> get(KeyId key, SimTime now);

  /// Read-only peek that does not perturb stats (for tests/metrics).
  const ValueRecord* peek(KeyId key) const { return table_.find(key); }

  /// Removes `key`; returns true if it was present.
  bool erase(KeyId key);

  std::size_t key_count() const { return table_.size(); }
  const StorageStats& stats() const { return stats_; }

 private:
  RobinHoodMap<ValueRecord> table_;
  StorageStats stats_;
};

}  // namespace das::store
