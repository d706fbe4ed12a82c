#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace das::net {

namespace {

class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(Duration d) : d_(d) { DAS_CHECK(d >= 0); }
  Duration sample(Rng&) const override { return d_; }
  Duration mean() const override { return d_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "constant(" << d_ << "us)";
    return os.str();
  }
  bool is_constant() const override { return true; }

 private:
  Duration d_;
};

class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(Duration lo, Duration hi) : lo_(lo), hi_(hi) {
    DAS_CHECK(lo >= 0);
    DAS_CHECK(lo <= hi);
  }
  Duration sample(Rng& rng) const override { return rng.uniform(lo_, hi_); }
  Duration mean() const override { return 0.5 * (lo_ + hi_); }
  std::string describe() const override {
    std::ostringstream os;
    os << "uniform(" << lo_ << ", " << hi_ << "us)";
    return os.str();
  }

 private:
  Duration lo_, hi_;
};

class LognormalLatency final : public LatencyModel {
 public:
  LognormalLatency(Duration mean, double sigma) : mean_(mean), sigma_(sigma) {
    DAS_CHECK(mean > 0);
    DAS_CHECK(sigma >= 0);
    mu_ = std::log(mean) - 0.5 * sigma * sigma;
  }
  Duration sample(Rng& rng) const override { return rng.lognormal(mu_, sigma_); }
  Duration mean() const override { return mean_; }
  std::string describe() const override {
    std::ostringstream os;
    os << "lognormal(mean=" << mean_ << "us, sigma=" << sigma_ << ")";
    return os.str();
  }

 private:
  Duration mean_, sigma_, mu_;
};

std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

LatencyPtr make_constant_latency(Duration d) {
  return std::make_shared<ConstantLatency>(d);
}
LatencyPtr make_uniform_latency(Duration lo, Duration hi) {
  return std::make_shared<UniformLatency>(lo, hi);
}
LatencyPtr make_lognormal_latency(Duration mean, double sigma) {
  return std::make_shared<LognormalLatency>(mean, sigma);
}

Network::Network(sim::Simulator& sim, Config config, Rng rng)
    : sim_(sim), config_(std::move(config)), rng_(rng) {
  DAS_CHECK(config_.latency != nullptr);
  DAS_CHECK(config_.bandwidth_bytes_per_us >= 0);
  DAS_CHECK(config_.loss_probability >= 0 && config_.loss_probability < 1);
  use_lane_ =
      config_.latency->is_constant() && config_.bandwidth_bytes_per_us == 0;
  lane_latency_ = config_.latency->mean();
  if (config_.num_nodes != 0) {
    link_last_dense_.assign(
        static_cast<std::size_t>(config_.num_nodes) * config_.num_nodes, 0.0);
  }
}

SimTime* Network::link_last_slot(NodeId from, NodeId to) {
  if (config_.num_nodes != 0) {
    DAS_CHECK_MSG(from < config_.num_nodes && to < config_.num_nodes,
                  "node id beyond Config::num_nodes");
    return &link_last_dense_[static_cast<std::size_t>(from) * config_.num_nodes +
                             to];
  }
  return &link_last_sparse_[link_key(from, to)];
}

char& Network::partition_slot(NodeId from, NodeId to) {
  if (config_.num_nodes != 0) {
    DAS_CHECK_MSG(from < config_.num_nodes && to < config_.num_nodes,
                  "node id beyond Config::num_nodes");
    if (partition_dense_.empty()) {
      partition_dense_.assign(
          static_cast<std::size_t>(config_.num_nodes) * config_.num_nodes, 0);
    }
    return partition_dense_[static_cast<std::size_t>(from) * config_.num_nodes +
                            to];
  }
  return partition_sparse_[link_key(from, to)];
}

void Network::set_partitioned(NodeId a, NodeId b, bool cut) {
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    char& slot = partition_slot(from, to);
    if (slot == (cut ? 1 : 0)) continue;
    slot = cut ? 1 : 0;
    if (cut) {
      ++partitions_active_;
    } else {
      DAS_CHECK(partitions_active_ > 0);
      --partitions_active_;
    }
  }
}

bool Network::partitioned(NodeId from, NodeId to) const {
  if (partitions_active_ == 0) return false;
  if (config_.num_nodes != 0) {
    if (partition_dense_.empty()) return false;
    return partition_dense_[static_cast<std::size_t>(from) * config_.num_nodes +
                            to] != 0;
  }
  const auto it = partition_sparse_.find(link_key(from, to));
  return it != partition_sparse_.end() && it->second != 0;
}

void Network::set_burst_loss(double p) {
  DAS_CHECK(p >= 0 && p < 1);
  burst_loss_ = p;
}

bool Network::admit(NodeId from, NodeId to, Bytes size) {
  ++stats_.messages_sent;
  stats_.bytes_sent += size;
  // Partition check first: it consumes no randomness, so cutting a link
  // never shifts the loss or latency draws of messages on other links.
  if (partitions_active_ > 0 && partitioned(from, to)) {
    ++stats_.messages_dropped;
    ++stats_.messages_dropped_partition;
    return false;
  }
  if (config_.loss_probability > 0 && rng_.chance(config_.loss_probability)) {
    ++stats_.messages_dropped;
    return false;
  }
  if (burst_loss_ > 0 && rng_.chance(burst_loss_)) {
    ++stats_.messages_dropped;
    return false;
  }
  return true;
}

SimTime Network::heap_arrival(NodeId from, NodeId to, Bytes size) {
  Duration delay = config_.latency->sample(rng_);
  if (config_.bandwidth_bytes_per_us > 0) {
    delay += static_cast<double>(size) / config_.bandwidth_bytes_per_us;
  }
  SimTime arrival = sim_.now() + delay;
  if (config_.fifo_per_link) {
    SimTime* last = link_last_slot(from, to);
    arrival = std::max(arrival, *last);
    *last = arrival;
  }
  return arrival;
}

void Network::send(NodeId from, NodeId to, Bytes size, sim::EventFn&& deliver) {
  DAS_CHECK(deliver != nullptr);
  ++stats_.fanouts_sent;
  if (!admit(from, to, size)) {
    ++stats_.fanouts_lost;
    return;
  }
  if (use_lane_) {
    sim_.schedule_fifo(sim_.now() + lane_latency_, std::move(deliver));
  } else {
    sim_.schedule_at(heap_arrival(from, to, size), std::move(deliver));
  }
}

}  // namespace das::net
