#include "store/replica_table.hpp"

#include "common/check.hpp"

namespace das::store {

ReplicaTable::ReplicaTable(const Partitioner& placement, std::size_t replication,
                           const std::vector<Bytes>& sizes)
    : replication_(replication) {
  DAS_CHECK_MSG(replication >= 1 && replication <= placement.server_count(),
                "replication must be in [1, server count]");
  entries_.reserve(sizes.size() * replication);
  if (replication == 1) {
    for (KeyId key = 0; key < sizes.size(); ++key) {
      entries_.push_back({placement.server_for(key), sizes[key]});
    }
    return;
  }
  std::vector<ServerId> replicas;
  for (KeyId key = 0; key < sizes.size(); ++key) {
    placement.replicas_into(key, replication, replicas);
    DAS_CHECK(replicas.size() == replication);
    for (const ServerId s : replicas) entries_.push_back({s, sizes[key]});
  }
}

}  // namespace das::store
