#include "store/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "store/hash_table.hpp"

namespace das::store {

namespace {

class ModuloPartitioner final : public Partitioner {
 public:
  explicit ModuloPartitioner(std::size_t servers) : servers_(servers) {
    DAS_CHECK(servers >= 1);
  }
  ServerId server_for(KeyId key) const override {
    // Mix first: raw key % N correlates with generator patterns.
    return static_cast<ServerId>(mix_key(key) % servers_);
  }
  void replicas_into(KeyId key, std::size_t count,
                     std::vector<ServerId>& out) const override {
    count = std::min(count, servers_);
    out.clear();
    out.reserve(count);
    const ServerId primary = server_for(key);
    for (std::size_t i = 0; i < count; ++i)
      out.push_back(static_cast<ServerId>((primary + i) % servers_));
  }
  std::size_t server_count() const override { return servers_; }
  std::string describe() const override {
    return "modulo(" + std::to_string(servers_) + ")";
  }

 private:
  std::size_t servers_;
};

}  // namespace

PartitionerPtr make_modulo_partitioner(std::size_t servers) {
  return std::make_shared<ModuloPartitioner>(servers);
}

ConsistentHashRing::ConsistentHashRing(std::size_t servers,
                                       std::size_t vnodes_per_server,
                                       std::uint64_t seed)
    : servers_(servers), vnodes_(vnodes_per_server), seed_(seed) {
  DAS_CHECK(servers >= 1);
  DAS_CHECK(vnodes_per_server >= 1);
  ring_.reserve(servers * vnodes_per_server);
  for (std::size_t s = 0; s < servers; ++s) {
    std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (s + 1));
    for (std::size_t v = 0; v < vnodes_per_server; ++v) {
      ring_.emplace_back(splitmix64(state), static_cast<ServerId>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ConsistentHashRing::lower_point(std::uint64_t h) const {
  // First ring point with hash >= h, wrapping to 0.
  const auto it = std::lower_bound(ring_.begin(), ring_.end(), Point{h, 0});
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

ServerId ConsistentHashRing::server_for(KeyId key) const {
  return ring_[lower_point(mix_key(key))].server;
}

void ConsistentHashRing::replicas_into(KeyId key, std::size_t count,
                                       std::vector<ServerId>& out) const {
  count = std::min(count, servers_);
  out.clear();
  out.reserve(count);
  std::size_t idx = lower_point(mix_key(key));
  // Walk the ring clockwise collecting distinct servers.
  for (std::size_t steps = 0; steps < ring_.size() && out.size() < count; ++steps) {
    const ServerId s = ring_[(idx + steps) % ring_.size()].server;
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
}

std::string ConsistentHashRing::describe() const {
  std::ostringstream os;
  os << "ring(servers=" << servers_ << ", vnodes=" << vnodes_ << ")";
  return os.str();
}

std::vector<double> ConsistentHashRing::ownership() const {
  std::vector<double> share(servers_, 0.0);
  const double full = std::pow(2.0, 64);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const std::uint64_t cur = ring_[i].hash;
    const std::uint64_t prev = (i == 0) ? ring_.back().hash : ring_[i - 1].hash;
    // Arc length ending at cur, owned by cur's server; wraps at i == 0.
    const double arc = (i == 0)
                           ? (static_cast<double>(cur) + (full - static_cast<double>(prev)))
                           : static_cast<double>(cur - prev);
    share[ring_[i].server] += arc / full;
  }
  return share;
}

ConsistentHashRing ConsistentHashRing::with_servers(std::size_t servers) const {
  return ConsistentHashRing{servers, vnodes_, seed_};
}

PartitionerPtr make_consistent_hash_ring(std::size_t servers,
                                         std::size_t vnodes_per_server,
                                         std::uint64_t seed) {
  return std::make_shared<ConsistentHashRing>(servers, vnodes_per_server, seed);
}

}  // namespace das::store
