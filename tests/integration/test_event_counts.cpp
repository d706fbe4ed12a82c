// Exact event counts of two fixed cluster runs.
//
// The number of events a run dispatches is deterministic for a fixed seed
// and window, and it moves whenever the simulated path gains or loses an
// event: a batched fan-out split back into per-message deliveries, a timer
// that is no longer cancelled, a progress round sent twice. Pinning the count
// (and the time the run drains at) under FCFS and DAS catches such a change
// even where every statistic a golden row prints stays the same.
//
// The two points are 16 servers and 4 clients at load 0.8 with Zipf 0.9 keys
// and hottest-server calibration, seed 93, a 10 ms warm-up and a 37.5 ms
// window. If a change moves the counts on purpose, update them here and say
// why in the change's notes.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/cluster.hpp"

namespace das::core {
namespace {

struct Drained {
  std::uint64_t events = 0;
  SimTime at = 0;
};

Drained run_point(sched::Policy policy) {
  ClusterConfig cfg;
  cfg.num_servers = 16;
  cfg.num_clients = 4;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.9;
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.target_load = 0.8;
  cfg.policy = policy;
  cfg.seed = 93;
  RunWindow window;
  window.warmup_us = 10.0 * kMillisecond;
  window.measure_us = 37.5 * kMillisecond;
  Cluster cluster{cfg, window};
  const ExperimentResult result = cluster.run();
  EXPECT_EQ(result.requests_completed, result.requests_generated);
  return {cluster.simulator().events_dispatched(), cluster.simulator().now()};
}

TEST(EventCounts, FcfsClusterPoint) {
  const Drained d = run_point(sched::Policy::kFcfs);
  EXPECT_EQ(d.events, 26566u);
  EXPECT_EQ(d.at, 47620.74619872506);
}

TEST(EventCounts, DasClusterPoint) {
  const Drained d = run_point(sched::Policy::kDas);
  EXPECT_EQ(d.events, 36097u);
  EXPECT_EQ(d.at, 47620.74619872506);
}

}  // namespace
}  // namespace das::core
