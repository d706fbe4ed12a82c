// Cluster: wires simulator, network, partitioner, servers and clients into
// one runnable system and collects the results.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/server.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "workload/multiget.hpp"
#include "workload/replay.hpp"

namespace das::core {

/// Warmup/measurement windows of a run. Requests arriving in
/// [warmup, warmup + measure) are measured; everything is simulated to
/// completion either way so the tail is not truncated.
struct RunWindow {
  Duration warmup_us = 50.0 * kMillisecond;
  Duration measure_us = 300.0 * kMillisecond;
  SimTime horizon() const { return warmup_us + measure_us; }
};

class Cluster {
 public:
  /// `tracer` (optional, caller-owned, must outlive the cluster) records the
  /// full op lifecycle; null means zero tracing overhead.
  Cluster(ClusterConfig config, RunWindow window,
          trace::Tracer* tracer = nullptr);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs to completion (all generated requests answered) and returns the
  /// aggregated result. Callable once.
  ExperimentResult run();

  // Introspection for tests.
  sim::Simulator& simulator() { return sim_; }
  const net::Network& network() const { return *net_; }
  const Metrics& metrics() const { return metrics_; }
  const ClusterConfig& config() const { return config_; }
  Server& server(std::size_t i) { return *servers_.at(i); }
  Client& client(std::size_t i) { return *clients_.at(i); }
  std::size_t server_count() const { return servers_.size(); }
  std::size_t client_count() const { return clients_.size(); }
  const store::Partitioner& partitioner() const { return *partitioner_; }
  const std::vector<Bytes>& key_sizes() const { return key_sizes_; }
  /// Tenant t's generator (nullptr for replay tenants); valid only when the
  /// config declares tenants.
  const workload::MultigetGenerator* tenant_generator(std::size_t t) const {
    return tenant_generators_.at(t).get();
  }
  /// Records every generated operation into `sink` for later replay
  /// (one record per read key, one per write); call before run(). nullptr
  /// detaches. Purely observational.
  void set_workload_recorder(workload::ReplayTrace* sink);
  /// Per-request RCT decomposition (aggregate always; rows when
  /// config.breakdown_retain_requests > 0).
  const trace::BreakdownCollector& breakdown() const { return breakdown_; }

 private:
  /// Request arrival rate (requests/µs, all clients) per the calibration mode.
  double derived_request_rate() const;
  /// Multi-tenant variant: share-weighted, mix-aware demand model across the
  /// synthetic tenants (replay tenants pace themselves off their trace).
  double derived_tenant_request_rate() const;

  /// Loads every key of the `universe` onto its `replication` replicas, one
  /// server at a time.
  void populate_servers(std::uint64_t universe, std::size_t replication);

  /// Executes one scripted fault event (run() schedules one call per
  /// FaultPlan entry) and mirrors it into the trace as an instant event.
  void apply_fault(const fault::FaultEvent& event);

  /// One client fan-out in flight: its messages as the network routed them
  /// and, index-aligned, their payloads — op contexts, or the progress
  /// updates of `request`. Pooled: a fan-out whose last delivery has run
  /// keeps its buffers for the next one, so steady-state sending allocates
  /// nothing.
  struct Fanout {
    std::vector<net::Message> msgs;
    std::vector<sched::OpContext> ops;
    std::vector<sched::ProgressUpdate> updates;
    RequestId request = 0;
    bool progress = false;
    /// Delivery events still scheduled; the fan-out is recycled at zero.
    std::uint32_t events = 0;
  };

  /// An empty fan-out from the pool; returns its index in fanouts_.
  std::uint32_t acquire_fanout();
  /// Hands fan-out `id` of client `client` to the network, which decides
  /// each message and schedules the deliveries.
  void route_fanout(ClientId client, std::uint32_t id);
  /// Delivery event of fan-out `id`: message `index` reaches its server (all
  /// delivered messages, in send order, for net::kAllDelivered). Recycles
  /// the fan-out after its last delivery event.
  void deliver_fanout(std::uint32_t id, std::uint32_t index);

  net::NodeId server_node(ServerId s) const { return s; }
  net::NodeId client_node(ClientId c) const {
    return static_cast<net::NodeId>(config_.num_servers + c);
  }

  ClusterConfig config_;
  RunWindow window_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  store::PartitionerPtr partitioner_;
  std::vector<Bytes> key_sizes_;
  std::unique_ptr<workload::MultigetGenerator> generator_;
  /// Multi-tenant mode: one generator per tenant over its keyspace slice
  /// (nullptr entries for replay tenants) plus the loaded traces and the
  /// parsed per-tenant value-size distributions. All empty in legacy mode.
  std::vector<std::unique_ptr<workload::MultigetGenerator>> tenant_generators_;
  std::vector<workload::ReplayTrace> replay_traces_;
  std::vector<RealDistPtr> tenant_value_dists_;
  Metrics metrics_;
  trace::Tracer* tracer_ = nullptr;
  trace::BreakdownCollector breakdown_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  /// The fan-out pool (a deque: references stay valid as it grows).
  std::deque<Fanout> fanouts_;
  std::vector<std::uint32_t> free_fanouts_;
  std::uint64_t progress_messages_ = 0;
  bool ran_ = false;
};

}  // namespace das::core
