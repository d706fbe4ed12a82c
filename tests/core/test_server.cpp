#include "core/server.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sched/scheduler.hpp"

namespace das::core {
namespace {

struct ServerFixture : ::testing::Test {
  sim::Simulator sim;
  Metrics metrics;
  std::vector<OpResponse> responses;
  // 64 keys of 100 bytes, two copies each over three servers. The fixture's
  // server is server 0: it holds the keys whose primary is server 0 or 2.
  store::PartitionerPtr placement = store::make_modulo_partitioner(3);
  store::ReplicaTable replicas{*placement, 2, std::vector<Bytes>(64, 100)};

  std::unique_ptr<Server> make_server(Server::Params params,
                                      sched::Policy policy = sched::Policy::kFcfs) {
    auto server = std::make_unique<Server>(sim, std::move(params),
                                           sched::make_scheduler(policy),
                                           replicas, metrics);
    server->set_response_handler(
        [this](const OpResponse& r) { responses.push_back(r); });
    return server;
  }

  /// The first key whose primary is server `s`.
  KeyId key_on(ServerId s) const {
    KeyId key = 0;
    while (placement->server_for(key) != s) ++key;
    return key;
  }

  static sched::OpContext op(OperationId id, KeyId key, double demand) {
    sched::OpContext ctx;
    ctx.op_id = id;
    ctx.request_id = id;
    ctx.key = key;
    ctx.demand_us = demand;
    return ctx;
  }
};

TEST_F(ServerFixture, ServesOpAfterServiceTime) {
  auto server = make_server({});
  server->receive_op(op(1, key_on(0), 40.0));
  sim.run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_DOUBLE_EQ(responses[0].completed_at, 40.0);
  EXPECT_TRUE(responses[0].hit);
  EXPECT_EQ(responses[0].value_size, 100u);
}

TEST_F(ServerFixture, MissOnUnknownKey) {
  auto server = make_server({});
  server->receive_op(op(1, key_on(1), 10.0));
  sim.run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].hit);
  EXPECT_EQ(responses[0].value_size, 0u);
}

TEST_F(ServerFixture, WriteUpdatesOnlyItsOwnCopy) {
  auto server = make_server({});
  const KeyId key = key_on(2);  // copies on servers 2 and 0
  sched::OpContext write = op(1, key, 10.0);
  write.is_write = true;
  write.write_size = 700;
  server->receive_op(write);
  server->receive_op(op(2, key, 10.0));
  sim.run();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].hit);
  EXPECT_EQ(responses[0].value_size, 700u);
  EXPECT_TRUE(responses[1].hit);
  EXPECT_EQ(responses[1].value_size, 700u);  // the read sees the write
  EXPECT_EQ(replicas.find(key, 0)->size, 700u);
  EXPECT_EQ(replicas.find(key, 2)->size, 100u);  // the other copy waits
  EXPECT_EQ(server->writes_applied(), 1u);
  EXPECT_EQ(server->reads(), 1u);
  EXPECT_EQ(server->read_hits(), 1u);
}

TEST_F(ServerFixture, WriteToANonReplicaIsRejected) {
  auto server = make_server({});
  sched::OpContext write = op(1, key_on(1), 10.0);
  write.is_write = true;
  write.write_size = 700;
  server->receive_op(write);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST_F(ServerFixture, HalfSpeedDoublesServiceTime) {
  Server::Params params;
  params.speed_factor = 0.5;
  auto server = make_server(std::move(params));
  server->receive_op(op(1, 1, 40.0));
  sim.run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_DOUBLE_EQ(responses[0].completed_at, 80.0);
}

TEST_F(ServerFixture, SpeedProfileModulatesService) {
  Server::Params params;
  params.speed_profile = workload::make_step_rate({100.0}, {1.0, 0.5});
  auto server = make_server(std::move(params));
  server->receive_op(op(1, 1, 40.0));  // at t=0, speed 1.0 => done at 40
  sim.run();
  EXPECT_DOUBLE_EQ(responses[0].completed_at, 40.0);
  sim.run_until(200.0);
  server->receive_op(op(2, 1, 40.0));  // at t=200, speed 0.5 => 80us
  sim.run();
  EXPECT_DOUBLE_EQ(responses[1].completed_at, 280.0);
}

TEST_F(ServerFixture, QueueDrainsSequentially) {
  auto server = make_server({});
  for (OperationId i = 0; i < 5; ++i) server->receive_op(op(i, 1, 10.0));
  EXPECT_EQ(server->queue_length(), 4u);  // one already in service
  sim.run();
  ASSERT_EQ(responses.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(responses[i].completed_at, static_cast<double>(i + 1) * 10.0);
  EXPECT_EQ(server->ops_completed(), 5u);
  EXPECT_FALSE(server->busy());
}

TEST_F(ServerFixture, MuHatConvergesToTrueSpeed) {
  Server::Params params;
  params.speed_factor = 0.25;
  params.speed_alpha = 0.2;
  auto server = make_server(std::move(params));
  for (OperationId i = 0; i < 100; ++i) server->receive_op(op(i, 1, 10.0));
  sim.run();
  EXPECT_NEAR(server->mu_hat(), 0.25, 0.01);
}

TEST_F(ServerFixture, DHatReflectsBacklog) {
  auto server = make_server({});
  for (OperationId i = 0; i < 4; ++i) server->receive_op(op(i, 1, 25.0));
  // One op in service; three queued at 25us each = 75us of backlog.
  EXPECT_NEAR(server->d_hat_us(), 75.0, 1e-9);
  sim.run();
  EXPECT_DOUBLE_EQ(server->d_hat_us(), 0.0);
}

TEST_F(ServerFixture, ResponsePiggybacksEstimates) {
  auto server = make_server({});
  for (OperationId i = 0; i < 3; ++i) server->receive_op(op(i, 1, 10.0));
  sim.run();
  // First response sent when two ops remain queued... the server starts the
  // next op before responding, so the piggybacked d_hat covers the remaining
  // queue only.
  EXPECT_GT(responses[0].mu_hat, 0.0);
  EXPECT_GE(responses[0].d_hat_us, 0.0);
  EXPECT_GT(responses[0].d_hat_us, responses[2].d_hat_us);
}

TEST_F(ServerFixture, UtilizationWindowClipsBusyTime) {
  auto server = make_server({});
  server->set_utilization_window(50.0, 150.0);
  server->receive_op(op(1, 1, 100.0));  // busy [0, 100): 50 inside window
  sim.run();
  EXPECT_DOUBLE_EQ(server->busy_time_in_window(), 50.0);
}

TEST_F(ServerFixture, MetricsRecordOperationWaits) {
  metrics.set_window(0, kTimeInfinity);
  auto server = make_server({});
  server->receive_op(op(1, 1, 10.0));
  server->receive_op(op(2, 1, 10.0));
  sim.run();
  EXPECT_EQ(metrics.op_latency().moments().count(), 2u);
  // Second op waited 10us for the first.
  EXPECT_DOUBLE_EQ(metrics.op_wait().moments().max(), 10.0);
}

}  // namespace
}  // namespace das::core
