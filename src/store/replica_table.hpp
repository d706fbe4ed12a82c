// Key-major replica table: the cluster's one record of which server holds
// which key, and at what size.
//
// A server needs only two things from its store: whether it holds a key, and
// the value's size (the response's wire bytes and, under the LSM model, the
// read's service price). The table keeps exactly that for every copy:
// entry[key * R + r] = {server, size} for the key's r-th replica in placement
// order. A key's R entries are contiguous, so a server's lookup scans one
// cache line for its own id. Each copy is its own entry, so a write changes
// only the copy of the server that applied it, and the copies converge as the
// client's write-all fan-out lands.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/invariant.hpp"
#include "common/types.hpp"
#include "store/partitioner.hpp"

namespace das::store {

class ReplicaTable {
 public:
  struct Entry {
    ServerId server = kInvalidServer;
    Bytes size = 0;
  };
  static_assert(sizeof(Entry) <= 16, "a key's copies should share a cache line");

  /// An empty table (no keys).
  ReplicaTable() = default;
  /// Places every key of `sizes` on its first `replication` servers of
  /// `placement` (primary first), each copy at the key's catalogue size.
  /// One pass over the keyspace.
  ReplicaTable(const Partitioner& placement, std::size_t replication,
               const std::vector<Bytes>& sizes);

  std::size_t replication() const { return replication_; }
  std::size_t key_count() const { return entries_.size() / replication_; }

  /// Every copy of `key`, in placement order.
  std::span<const Entry> copies(KeyId key) const {
    DAS_DCHECK(key < key_count());
    return {entries_.data() + key * replication_, replication_};
  }

  /// `server`'s copy of `key`, or nullptr when `server` is not a replica.
  const Entry* find(KeyId key, ServerId server) const {
    for (const Entry& copy : copies(key)) {
      if (copy.server == server) return &copy;
    }
    return nullptr;
  }
  Entry* find(KeyId key, ServerId server) {
    return const_cast<Entry*>(std::as_const(*this).find(key, server));
  }

 private:
  std::size_t replication_ = 1;
  std::vector<Entry> entries_;
};

}  // namespace das::store
