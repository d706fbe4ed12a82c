// Retransmission backoff: exponential growth, the configured cap, ±20%
// jitter (retry desynchronization), the give-up bound, and RTO-driven
// suspicion. Uses a bare Client so retransmission instants are observable.
#include "core/client.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace das::core {
namespace {

struct TimedSend {
  SimTime at;
  ServerId server;
  OperationId op_id;
  sched::OpContext ctx;
};

struct RetryFixture : ::testing::Test {
  static constexpr std::size_t kServers = 4;

  sim::Simulator sim;
  Metrics metrics;
  store::PartitionerPtr partitioner = store::make_modulo_partitioner(kServers);
  std::vector<Bytes> key_sizes = std::vector<Bytes>(64, 100);
  std::vector<TimedSend> sends;
  std::unique_ptr<workload::MultigetGenerator> generator;
  std::unique_ptr<Client> client;

  void build(std::uint32_t fanout, Client::Params overrides) {
    workload::MultigetGenerator::Config gen_cfg;
    gen_cfg.key_universe = key_sizes.size();
    gen_cfg.zipf_theta = 0.0;
    gen_cfg.fanout = make_fixed_int(fanout);
    generator = std::make_unique<workload::MultigetGenerator>(gen_cfg);

    Client::Params params = overrides;
    params.id = 3;
    params.num_servers = kServers;
    params.per_op_overhead_us = 10.0;
    params.service_bytes_per_us = 50.0;
    params.est_rtt_us = 10.0;

    metrics.set_window(0, kTimeInfinity);
    client = std::make_unique<Client>(
        sim, params, Rng{42}, *generator,
        workload::make_deterministic_arrivals(0.001),  // one arrival at 1000us
        *partitioner, key_sizes, metrics,
        [this](std::span<const Client::OpSend> ops) {
          for (const Client::OpSend& op : ops) {
            sends.push_back(TimedSend{sim.now(), op.server, op.ctx.op_id, op.ctx});
          }
        },
        [](RequestId, std::span<const Client::ProgressSend>) {});
  }

  /// Send instants of one op, in order: index 0 is the original transmission.
  std::vector<SimTime> send_times(OperationId op_id) const {
    std::vector<SimTime> times;
    for (const TimedSend& s : sends)
      if (s.op_id == op_id) times.push_back(s.at);
    return times;
  }
};

TEST_F(RetryFixture, BackoffDoublesAndRespectsCap) {
  Client::Params p;
  p.retry_timeout_us = 100.0;
  p.retry_backoff_max_us = 400.0;
  build(1, p);
  client->start(1500.0);
  sim.run_until(5000.0);  // never respond: the op keeps retransmitting

  const std::vector<SimTime> times = send_times(sends.front().op_id);
  ASSERT_GE(times.size(), 6u);  // original + >= 5 retransmissions
  // Nominal gaps 100, 200, 400(capped), 400, 400 — each jittered ±20%.
  const double expected[] = {100.0, 200.0, 400.0, 400.0, 400.0};
  for (int i = 0; i < 5; ++i) {
    const double gap = times[i + 1] - times[i];
    EXPECT_GE(gap, 0.8 * expected[i] - 1e-9) << "retransmission " << i;
    EXPECT_LE(gap, 1.2 * expected[i] + 1e-9) << "retransmission " << i;
  }
}

TEST_F(RetryFixture, UncappedBackoffKeepsDoubling) {
  Client::Params p;
  p.retry_timeout_us = 100.0;
  build(1, p);
  client->start(1500.0);
  sim.run_until(5000.0);

  const std::vector<SimTime> times = send_times(sends.front().op_id);
  ASSERT_GE(times.size(), 5u);
  // Fourth gap is nominally 800us; a 400us cap would have clamped it.
  EXPECT_GE(times[4] - times[3], 0.8 * 800.0 - 1e-9);
}

TEST_F(RetryFixture, JitterDesynchronizesSimultaneousRetries) {
  // Regression for retry storms: eight ops of one request are all sent at
  // the same instant; un-jittered timers would retransmit all eight at the
  // same instant too, re-synchronizing the very burst the loss killed.
  Client::Params p;
  p.retry_timeout_us = 100.0;
  build(8, p);
  client->start(1500.0);
  sim.run_until(1250.0);

  std::set<OperationId> ops;
  for (const TimedSend& s : sends) ops.insert(s.op_id);
  ASSERT_EQ(ops.size(), 8u);
  std::set<SimTime> first_retry_instants;
  for (const OperationId op : ops) {
    const std::vector<SimTime> times = send_times(op);
    ASSERT_GE(times.size(), 2u);
    EXPECT_GE(times[1] - times[0], 80.0 - 1e-9);
    EXPECT_LE(times[1] - times[0], 120.0 + 1e-9);
    first_retry_instants.insert(times[1]);
  }
  // Jitter spreads the storm: the eight first-retries hit distinct instants.
  EXPECT_GT(first_retry_instants.size(), 4u);
}

TEST(RetryJitter, DeterministicAcrossRuns) {
  // The jitter stream is forked from the client's seed, so two identical
  // builds retransmit at bit-identical instants.
  const auto record_sends = [] {
    sim::Simulator sim;
    Metrics metrics;
    const store::PartitionerPtr partitioner = store::make_modulo_partitioner(4);
    std::vector<Bytes> key_sizes(64, 100);
    workload::MultigetGenerator::Config gen_cfg;
    gen_cfg.key_universe = key_sizes.size();
    gen_cfg.zipf_theta = 0.0;
    gen_cfg.fanout = make_fixed_int(4);
    workload::MultigetGenerator generator{gen_cfg};
    Client::Params params;
    params.id = 3;
    params.num_servers = 4;
    params.per_op_overhead_us = 10.0;
    params.service_bytes_per_us = 50.0;
    params.retry_timeout_us = 100.0;
    std::vector<std::pair<SimTime, OperationId>> sends;
    Client client{sim,
                  params,
                  Rng{42},
                  generator,
                  workload::make_deterministic_arrivals(0.001),
                  *partitioner,
                  key_sizes,
                  metrics,
                  [&](std::span<const Client::OpSend> ops) {
                    for (const Client::OpSend& op : ops) {
                      sends.emplace_back(sim.now(), op.ctx.op_id);
                    }
                  },
                  [](RequestId, std::span<const Client::ProgressSend>) {}};
    client.start(1500.0);
    sim.run_until(1300.0);
    return sends;
  };
  const auto first_run = record_sends();
  const auto second_run = record_sends();
  ASSERT_EQ(first_run.size(), second_run.size());
  ASSERT_GT(first_run.size(), 4u);  // at least one retransmission happened
  for (std::size_t i = 0; i < first_run.size(); ++i) {
    EXPECT_DOUBLE_EQ(first_run[i].first, second_run[i].first);
    EXPECT_EQ(first_run[i].second, second_run[i].second);
  }
}

TEST_F(RetryFixture, GivesUpAfterMaxAttemptsAndAccountsTheFailure) {
  Client::Params p;
  p.retry_timeout_us = 100.0;
  p.retry_max_attempts = 3;
  build(2, p);
  client->start(1500.0);
  sim.run();  // silence: both ops exhaust their attempts

  for (const TimedSend& s : sends) {
    // 3 attempts per op: the original send plus two retransmissions.
    EXPECT_EQ(send_times(s.op_id).size(), 3u);
  }
  EXPECT_EQ(client->ops_abandoned(), 2u);
  EXPECT_EQ(client->requests_failed(), 1u);
  EXPECT_EQ(client->requests_completed(), 0u);
  EXPECT_EQ(client->in_flight(), 0u);
  EXPECT_EQ(metrics.requests_failed_measured(), 1u);
  EXPECT_EQ(metrics.rct().moments().count(), 0u);  // failures never enter RCT
}

TEST_F(RetryFixture, ConsecutiveRtosRaiseSuspicionAndAResponseClearsIt) {
  Client::Params p;
  p.retry_timeout_us = 100.0;
  p.suspicion_rto_threshold = 2;
  build(1, p);
  client->start(1500.0);
  sim.run_until(1400.0);  // enough for two RTOs (jitter <= 120 + 240)

  const ServerId server = sends.front().server;
  EXPECT_TRUE(client->suspects(server));
  EXPECT_GE(client->suspicions_raised(), 1u);

  OpResponse resp;
  resp.op_id = sends.front().op_id;
  resp.request_id = sends.front().ctx.request_id;
  resp.client = sends.front().ctx.client;
  resp.server = server;
  resp.key = sends.front().ctx.key;
  resp.hit = true;
  resp.value_size = 100;
  resp.completed_at = sim.now();
  resp.mu_hat = 1.0;
  client->on_response(resp);
  EXPECT_FALSE(client->suspects(server));  // an answer rehabilitates
}

}  // namespace
}  // namespace das::core
