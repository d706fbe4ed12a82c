#include "core/client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace das::core {
namespace {

struct SentOp {
  ServerId server;
  sched::OpContext ctx;
};
struct SentProgress {
  ServerId server;
  RequestId request;
  sched::ProgressUpdate update;
};

struct ClientFixture : ::testing::Test {
  static constexpr std::size_t kServers = 4;

  sim::Simulator sim;
  Metrics metrics;
  store::PartitionerPtr partitioner = store::make_modulo_partitioner(kServers);
  std::vector<Bytes> key_sizes = std::vector<Bytes>(64, 100);  // demand 10+100/50=12us
  std::vector<SentOp> sent_ops;
  std::vector<SentProgress> sent_progress;
  /// Calls of the two send hooks: each is one fan-out.
  std::size_t op_fanouts = 0;
  std::size_t progress_fanouts = 0;
  std::unique_ptr<workload::MultigetGenerator> generator;
  std::unique_ptr<Client> client;

  void build(std::uint32_t fanout, Client::Params overrides = {}) {
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

    client = std::make_unique<Client>(
        sim, params, Rng{42}, *generator,
        workload::make_deterministic_arrivals(0.001),  // every 1000us
        *partitioner, key_sizes, metrics,
        [this](std::span<const Client::OpSend> ops) {
          ++op_fanouts;
          for (const Client::OpSend& op : ops) {
            sent_ops.push_back(SentOp{op.server, op.ctx});
          }
        },
        [this](RequestId r, std::span<const Client::ProgressSend> updates) {
          ++progress_fanouts;
          for (const Client::ProgressSend& u : updates) {
            sent_progress.push_back(SentProgress{u.server, r, u.update});
          }
        });
  }

  /// Completes one sent op and feeds the response back.
  void respond(const SentOp& op, double d_hat = 0.0, double mu_hat = 1.0) {
    OpResponse resp;
    resp.op_id = op.ctx.op_id;
    resp.request_id = op.ctx.request_id;
    resp.client = op.ctx.client;
    resp.server = op.server;
    resp.key = op.ctx.key;
    resp.hit = true;
    resp.value_size = 100;
    resp.completed_at = sim.now();
    resp.d_hat_us = d_hat;
    resp.mu_hat = mu_hat;
    client->on_response(resp);
  }
};

TEST_F(ClientFixture, GeneratesRequestWithCorrectFanout) {
  build(8);
  client->start(1500.0);
  sim.run();
  EXPECT_EQ(client->requests_generated(), 1u);
  EXPECT_EQ(sent_ops.size(), 8u);
  EXPECT_EQ(client->ops_generated(), 8u);
}

TEST_F(ClientFixture, EachRequestAndProgressRoundIsOneFanout) {
  // All ops of a request leave in one hand-over, and so do all updates of
  // one progress round.
  Client::Params p;
  p.progress_threshold = 0.0;  // a progress round after every response
  build(8, p);
  client->start(2500.0);
  sim.run();
  EXPECT_EQ(client->requests_generated(), 2u);
  EXPECT_EQ(op_fanouts, 2u);
  EXPECT_EQ(sent_ops.size(), 16u);
  const std::vector<SentOp> first(sent_ops.begin(), sent_ops.begin() + 8);
  for (std::size_t i = 0; i + 1 < first.size(); ++i) {
    respond(first[i]);
    EXPECT_EQ(progress_fanouts, i + 1);
  }
  EXPECT_EQ(sent_progress.size(), client->progress_sent());
  EXPECT_GT(sent_progress.size(), progress_fanouts);
}

TEST_F(ClientFixture, ResponsesFindTheirOpsAcrossRequests) {
  // Responses index their op by its offset within the request; answering
  // a later request's ops in reverse order must settle exactly those ops.
  metrics.set_window(0, kTimeInfinity);
  build(4);
  client->start(2500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 8u);
  for (std::size_t i = 8; i-- > 4;) respond(sent_ops[i]);
  EXPECT_EQ(client->requests_completed(), 1u);
  EXPECT_EQ(client->in_flight(), 1u);
  EXPECT_THROW(respond(sent_ops[5]), std::logic_error);  // already settled
  for (std::size_t i = 0; i < 4; ++i) respond(sent_ops[i]);
  EXPECT_EQ(client->requests_completed(), 2u);
}

TEST_F(ClientFixture, OpsRoutedByPartitioner) {
  build(16);
  client->start(1500.0);
  sim.run();
  for (const SentOp& op : sent_ops)
    EXPECT_EQ(op.server, partitioner->server_for(op.ctx.key));
}

TEST_F(ClientFixture, TagsCarryRequestAggregates) {
  build(8);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 8u);
  const double expected_demand = 10.0 + 100.0 / 50.0;  // 12us each
  std::map<ServerId, double> per_server_demand;
  std::map<ServerId, std::uint32_t> per_server_ops;
  for (const SentOp& op : sent_ops) {
    EXPECT_DOUBLE_EQ(op.ctx.demand_us, expected_demand);
    per_server_demand[op.server] += expected_demand;
    ++per_server_ops[op.server];
  }
  double max_demand = 0;
  std::uint32_t max_ops = 0;
  for (const auto& [s, d] : per_server_demand) max_demand = std::max(max_demand, d);
  for (const auto& [s, n] : per_server_ops) max_ops = std::max(max_ops, n);

  for (const SentOp& op : sent_ops) {
    EXPECT_DOUBLE_EQ(op.ctx.total_demand_us, 8 * expected_demand);
    EXPECT_DOUBLE_EQ(op.ctx.bottleneck_demand_us, max_demand);
    EXPECT_EQ(op.ctx.bottleneck_ops, max_ops);
    EXPECT_DOUBLE_EQ(op.ctx.remaining_critical_us, expected_demand);
    EXPECT_EQ(op.ctx.request_id, sent_ops[0].ctx.request_id);
  }
}

TEST_F(ClientFixture, EstOtherCompletionExcludesOwnServer) {
  build(8);
  client->start(1500.0);
  sim.run();
  // With a cold view (d=0, mu=1) every op's full estimate is
  // arrival + rtt + demand; any op with at least one sibling on another
  // server carries exactly that bound.
  const SimTime arrival = 1000.0;
  const double full = arrival + 10.0 + 12.0;
  std::map<ServerId, int> per_server;
  for (const SentOp& op : sent_ops) ++per_server[op.server];
  for (const SentOp& op : sent_ops) {
    if (per_server.size() == 1) {
      EXPECT_DOUBLE_EQ(op.ctx.est_other_completion, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(op.ctx.est_other_completion, full);
    }
  }
}

TEST_F(ClientFixture, ProgressBoundIsMaxOverOtherServers) {
  // Each progress update's deferral bound must equal the definition — the
  // max full estimate over pending ops on servers other than the
  // destination — whether the maximum is unique or tied, and 0 once the
  // destination holds every pending op.
  Client::Params p;
  p.adaptive = true;
  p.ewma_alpha = 1.0;          // d_est follows each piggyback exactly
  p.progress_threshold = 0.0;  // send after every response
  build(16, p);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 16u);
  std::vector<bool> answered(sent_ops.size(), false);
  // Piggybacked delays: distinct per server, except that servers 1 and 2
  // report the same value, so the maximum is tied for a while.
  const double d_hat[kServers] = {40.0, 90.0, 90.0, 20.0};
  std::size_t checked = 0;
  for (std::size_t i = 0; i < sent_ops.size(); ++i) {
    sent_progress.clear();
    respond(sent_ops[i], d_hat[sent_ops[i].server]);
    answered[i] = true;
    for (const SentProgress& update : sent_progress) {
      SimTime expected = 0;
      for (std::size_t j = 0; j < sent_ops.size(); ++j) {
        if (answered[j] || sent_ops[j].server == update.server) continue;
        const ServerId s = sent_ops[j].server;
        expected = std::max(expected, sim.now() + p.est_rtt_us +
                                          client->delay_estimate(s) +
                                          sent_ops[j].ctx.demand_us /
                                              client->speed_estimate(s));
      }
      EXPECT_EQ(update.update.est_other_completion, expected)
          << "after response " << i << " to server " << update.server;
      ++checked;
    }
  }
  EXPECT_GT(checked, 16u);
}

TEST_F(ClientFixture, RequestCompletesWhenAllOpsRespond) {
  metrics.set_window(0, kTimeInfinity);
  build(4);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 4u);
  sim.run_until(2000.0);
  for (const SentOp& op : sent_ops) respond(op);
  EXPECT_EQ(client->requests_completed(), 1u);
  EXPECT_EQ(client->in_flight(), 0u);
  EXPECT_EQ(metrics.rct().moments().count(), 1u);
  EXPECT_DOUBLE_EQ(metrics.rct().moments().max(), 1000.0);  // 2000 - 1000
}

TEST_F(ClientFixture, AdaptiveEstimatesLearnFromPiggybacks) {
  Client::Params p;
  p.adaptive = true;
  p.ewma_alpha = 0.5;
  build(4, p);
  client->start(1500.0);
  sim.run();
  const ServerId s = sent_ops[0].server;
  EXPECT_DOUBLE_EQ(client->delay_estimate(s), 0.0);
  respond(sent_ops[0], /*d_hat=*/200.0, /*mu_hat=*/0.5);
  EXPECT_DOUBLE_EQ(client->delay_estimate(s), 100.0);   // 0 + 0.5*(200-0)
  EXPECT_DOUBLE_EQ(client->speed_estimate(s), 0.75);    // 1 + 0.5*(0.5-1)
}

TEST_F(ClientFixture, NonAdaptiveIgnoresPiggybacks) {
  Client::Params p;
  p.adaptive = false;
  build(4, p);
  client->start(1500.0);
  sim.run();
  respond(sent_ops[0], 500.0, 0.1);
  for (ServerId s = 0; s < kServers; ++s) {
    EXPECT_DOUBLE_EQ(client->delay_estimate(s), 0.0);
    EXPECT_DOUBLE_EQ(client->speed_estimate(s), 1.0);
  }
}

TEST_F(ClientFixture, ProgressSentWhenCriticalPathShrinks) {
  Client::Params p;
  p.progress_updates = true;
  p.progress_threshold = 0.05;
  build(8, p);
  client->start(1500.0);
  sim.run();
  sim.run_until(1600.0);
  respond(sent_ops[0]);
  // 7 ops remain across <= 4 servers; at most one update per pending server,
  // and none to fully-answered servers.
  EXPECT_GT(client->progress_sent(), 0u);
  std::map<ServerId, int> updates;
  for (const auto& prog : sent_progress) {
    EXPECT_EQ(prog.request, sent_ops[0].ctx.request_id);
    EXPECT_DOUBLE_EQ(prog.update.remaining_total_us, 7 * 12.0);
    ++updates[prog.server];
  }
  for (const auto& [server, count] : updates) EXPECT_EQ(count, 1);
}

TEST_F(ClientFixture, ProgressSuppressedWhenDisabled) {
  Client::Params p;
  p.progress_updates = false;
  build(8, p);
  client->start(1500.0);
  sim.run();
  respond(sent_ops[0]);
  EXPECT_EQ(client->progress_sent(), 0u);
}

TEST_F(ClientFixture, ProgressGatedByThreshold) {
  Client::Params p;
  p.progress_updates = true;
  p.progress_threshold = 10.0;  // absurdly high: never send
  build(8, p);
  client->start(1500.0);
  sim.run();
  respond(sent_ops[0]);
  EXPECT_EQ(client->progress_sent(), 0u);
}

TEST_F(ClientFixture, OpenLoopKeepsGeneratingWithoutResponses) {
  build(2);
  client->start(5500.0);
  sim.run();
  EXPECT_EQ(client->requests_generated(), 5u);  // arrivals at 1000..5000
  EXPECT_EQ(client->in_flight(), 5u);
}

TEST_F(ClientFixture, DuplicateResponseThrows) {
  build(2);
  client->start(1500.0);
  sim.run();
  respond(sent_ops[0]);
  EXPECT_THROW(respond(sent_ops[0]), std::logic_error);
}

TEST_F(ClientFixture, DuplicateResponseNeverTouchesTheLearnedView) {
  // Regression (PR 7): the EWMA update used to run BEFORE the duplicate
  // check, so every hedged/retried duplicate applied the same piggyback
  // twice and skewed the adaptive view toward whichever server answered
  // redundantly.
  Client::Params p;
  p.adaptive = true;
  p.ewma_alpha = 0.5;
  p.retry_timeout_us = 10'000.0;  // legalises duplicates; never fires here
  build(2, p);
  client->start(1500.0);
  sim.run_until(1050.0);
  ASSERT_EQ(sent_ops.size(), 2u);

  const ServerId s = sent_ops[0].server;
  respond(sent_ops[0], /*d_hat=*/200.0, /*mu_hat=*/0.5);
  EXPECT_DOUBLE_EQ(client->delay_estimate(s), 100.0);
  EXPECT_DOUBLE_EQ(client->speed_estimate(s), 0.75);

  // The same response delivered again (e.g. a served retransmission).
  respond(sent_ops[0], /*d_hat=*/200.0, /*mu_hat=*/0.5);
  EXPECT_EQ(client->duplicate_responses(), 1u);
  EXPECT_DOUBLE_EQ(client->delay_estimate(s), 100.0);  // NOT 150
  EXPECT_DOUBLE_EQ(client->speed_estimate(s), 0.75);   // NOT 0.625
}

TEST_F(ClientFixture, FailedOverOpNeverHedgesBackToSuspectedOrigin) {
  // Hedge x failover: once an op's origin is suspected and the op has moved
  // to a live replica, the (still pending) hedge must not resurrect the
  // origin — it targets the remaining third replica.
  Client::Params p;
  p.replication = 3;
  p.retry_timeout_us = 100.0;
  p.suspicion_rto_threshold = 1;
  p.hedge_delay_us = 150.0;
  build(1, p);
  client->start(1500.0);
  // t=1000: send to the primary. t in [1080, 1120]: first RTO -> origin
  // suspected, op fails over and is resent. t=1150: the hedge fires.
  sim.run_until(1200.0);
  ASSERT_EQ(sent_ops.size(), 3u);
  const ServerId origin = sent_ops[0].server;
  EXPECT_TRUE(client->suspects(origin));
  EXPECT_EQ(client->ops_failed_over(), 1u);
  EXPECT_EQ(client->ops_hedged(), 1u);
  const ServerId failover_target = sent_ops[1].server;
  const ServerId hedge_target = sent_ops[2].server;
  EXPECT_NE(failover_target, origin);
  EXPECT_NE(hedge_target, origin);
  EXPECT_NE(hedge_target, failover_target);
}

TEST_F(ClientFixture, LateDuplicateClearsSuspicionButNotTheView) {
  // The real-world shape of the duplicate path: an op fails over from a
  // suspected server to a live replica, completes there, and the original
  // server's late answer finally arrives. That answer is a liveness signal —
  // it must rehabilitate the suspected server — but it is NOT a fresh
  // feedback sample: the learned view stays untouched.
  Client::Params p;
  p.adaptive = true;
  p.ewma_alpha = 0.5;
  p.retry_timeout_us = 100.0;
  p.suspicion_rto_threshold = 2;
  p.replication = 2;
  build(1, p);
  client->start(1500.0);
  sim.run_until(1400.0);  // two RTOs: original server suspected, op failed over
  ASSERT_GE(sent_ops.size(), 1u);

  const ServerId original = sent_ops.front().server;
  ASSERT_TRUE(client->suspects(original));
  EXPECT_GE(client->ops_failed_over(), 1u);
  const ServerId target = sent_ops.back().server;
  ASSERT_NE(target, original);

  // The failover target answers: the op completes.
  OpResponse resp;
  resp.op_id = sent_ops.front().ctx.op_id;
  resp.request_id = sent_ops.front().ctx.request_id;
  resp.client = sent_ops.front().ctx.client;
  resp.server = target;
  resp.key = sent_ops.front().ctx.key;
  resp.hit = true;
  resp.value_size = 100;
  resp.completed_at = sim.now();
  client->on_response(resp);
  EXPECT_EQ(client->requests_completed(), 1u);

  // The original server's late answer to the first transmission.
  resp.server = original;
  resp.d_hat_us = 500.0;
  resp.mu_hat = 0.25;
  client->on_response(resp);
  EXPECT_EQ(client->duplicate_responses(), 1u);
  EXPECT_FALSE(client->suspects(original));  // liveness signal honoured
  EXPECT_DOUBLE_EQ(client->delay_estimate(original), 0.0);  // view untouched
  EXPECT_DOUBLE_EQ(client->speed_estimate(original), 1.0);
}

}  // namespace
}  // namespace das::core
