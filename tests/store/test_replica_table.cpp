#include "store/replica_table.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "store/storage_engine.hpp"

namespace das::store {
namespace {

constexpr std::size_t kServers = 8;
constexpr std::size_t kKeys = 400;

struct TableCase {
  const char* name;
  std::size_t ring_vnodes;  // 0 = modulo placement
  std::size_t replication;
};

void PrintTo(const TableCase& c, std::ostream* os) { *os << c.name; }

class ReplicaTableVsEngines : public ::testing::TestWithParam<TableCase> {
 protected:
  PartitionerPtr placement() const {
    return GetParam().ring_vnodes > 0
               ? make_consistent_hash_ring(kServers, GetParam().ring_vnodes)
               : make_modulo_partitioner(kServers);
  }

  static std::vector<Bytes> catalogue() {
    Rng rng{0xCA7A};
    std::vector<Bytes> sizes(kKeys);
    for (Bytes& size : sizes) size = 1 + rng.next_below(4096);
    return sizes;
  }
};

TEST_P(ReplicaTableVsEngines, CopiesFollowPlacementAtCatalogueSize) {
  const std::size_t r = GetParam().replication;
  const PartitionerPtr part = placement();
  const std::vector<Bytes> sizes = catalogue();
  const ReplicaTable table{*part, r, sizes};
  EXPECT_EQ(table.replication(), r);
  EXPECT_EQ(table.key_count(), kKeys);
  for (KeyId key = 0; key < kKeys; ++key) {
    const std::vector<ServerId> replicas = part->replicas_for(key, r);
    const auto copies = table.copies(key);
    ASSERT_EQ(copies.size(), replicas.size());
    for (std::size_t i = 0; i < copies.size(); ++i) {
      EXPECT_EQ(copies[i].server, replicas[i]) << "key " << key;
      EXPECT_EQ(copies[i].size, sizes[key]) << "key " << key;
    }
  }
}

// A seeded read/write stream replayed against the table and, as the
// reference, one StorageEngine per server populated with exactly its replica
// set. Reads go to any server (so non-replicas miss); writes go to one
// replica of their key, as the clients' write-all fan-out delivers them one
// copy at a time. Every hit and size must agree, during and after.
TEST_P(ReplicaTableVsEngines, SeededStreamMatchesPerServerEngines) {
  const std::size_t r = GetParam().replication;
  const PartitionerPtr part = placement();
  const std::vector<Bytes> sizes = catalogue();
  ReplicaTable table{*part, r, sizes};
  std::vector<StorageEngine> engines(kServers);
  for (KeyId key = 0; key < kKeys; ++key) {
    for (const ServerId s : part->replicas_for(key, r)) {
      engines[s].put(key, sizes[key], 0);
    }
  }

  Rng rng{0x5EED0 + r};
  std::size_t hits = 0, misses = 0, writes = 0;
  for (int i = 0; i < 20000; ++i) {
    const KeyId key = rng.next_below(kKeys);
    const SimTime now = i;
    if (rng.chance(0.3)) {
      const std::vector<ServerId> replicas = part->replicas_for(key, r);
      const ServerId s = replicas[rng.next_below(replicas.size())];
      const Bytes size = 1 + rng.next_below(8192);
      engines[s].put(key, size, now);
      ReplicaTable::Entry* copy = table.find(key, s);
      ASSERT_NE(copy, nullptr) << "write to replica " << s << " of key " << key;
      copy->size = size;
      ++writes;
      continue;
    }
    const auto s = static_cast<ServerId>(rng.next_below(kServers));
    const std::optional<ValueRecord> expected = engines[s].get(key, now);
    const ReplicaTable::Entry* copy = std::as_const(table).find(key, s);
    ASSERT_EQ(copy != nullptr, expected.has_value())
        << "read " << i << " key " << key << " server " << s;
    if (copy != nullptr) {
      EXPECT_EQ(copy->size, expected->size) << "read " << i;
      ++hits;
    } else {
      ++misses;
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(writes, 0u);

  for (KeyId key = 0; key < kKeys; ++key) {
    for (ServerId s = 0; s < kServers; ++s) {
      const ValueRecord* expected = engines[s].peek(key);
      const ReplicaTable::Entry* copy = std::as_const(table).find(key, s);
      ASSERT_EQ(copy != nullptr, expected != nullptr)
          << "key " << key << " server " << s;
      if (copy != nullptr) {
        EXPECT_EQ(copy->size, expected->size);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlacementByReplication, ReplicaTableVsEngines,
    ::testing::Values(TableCase{"modulo_r1", 0, 1}, TableCase{"modulo_r2", 0, 2},
                      TableCase{"modulo_r3", 0, 3}, TableCase{"ring_r1", 16, 1},
                      TableCase{"ring_r2", 16, 2}, TableCase{"ring_r3", 16, 3}),
    [](const auto& param_info) { return std::string{param_info.param.name}; });

TEST(ReplicaTable, RejectsReplicationBeyondTheCluster) {
  const PartitionerPtr part = make_modulo_partitioner(2);
  const std::vector<Bytes> sizes(4, 10);
  EXPECT_THROW((ReplicaTable{*part, 3, sizes}), std::logic_error);
  EXPECT_THROW((ReplicaTable{*part, 0, sizes}), std::logic_error);
}

}  // namespace
}  // namespace das::store
