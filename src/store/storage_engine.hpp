// Per-server in-memory key-value storage engine.
//
// Stores value records (size, version, timestamps) indexed by the Robin-Hood
// table. The simulator models service *time* separately in the server; the
// engine provides the functional behaviour (lookups actually hit or miss, a
// get's byte count comes from the stored record, versions advance on put) so
// workloads read real data rather than synthetic constants.
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

/// Storage-engine interface the servers program against. Two
/// implementations: the hash-table engine below (default) and the
/// log-structured engine in log_engine.hpp.
class KvStore {
 public:
  virtual ~KvStore() = default;

  /// Inserts or overwrites `key`. The version is bumped on every put.
  /// Returns the new version.
  virtual std::uint64_t put(KeyId key, Bytes size, SimTime now) = 0;

  /// Looks up `key`; counts a hit or miss.
  virtual std::optional<ValueRecord> get(KeyId key, SimTime now) = 0;

  /// Read-only peek that does not perturb stats (for tests/metrics).
  virtual const ValueRecord* peek(KeyId key) const = 0;

  /// Removes `key`; returns true if it was present.
  virtual bool erase(KeyId key) = 0;

  virtual std::size_t key_count() const = 0;
  virtual const StorageStats& stats() const = 0;

  /// Capacity hint: make room for `keys` keys in total so bulk loading them
  /// does not rehash. Never changes contents or stats.
  virtual void reserve(std::size_t keys) = 0;
};

/// Hash-table engine: Robin-Hood open addressing, O(1) everything, values
/// updated in place. The default backend.
class StorageEngine final : public KvStore {
 public:
  StorageEngine() = default;

  std::uint64_t put(KeyId key, Bytes size, SimTime now) override;
  std::optional<ValueRecord> get(KeyId key, SimTime now) override;
  const ValueRecord* peek(KeyId key) const override { return table_.find(key); }
  bool erase(KeyId key) override;
  std::size_t key_count() const override { return table_.size(); }
  const StorageStats& stats() const override { return stats_; }
  void reserve(std::size_t keys) override { table_.reserve(keys); }

 private:
  RobinHoodMap<ValueRecord> table_;
  StorageStats stats_;
};

}  // namespace das::store
