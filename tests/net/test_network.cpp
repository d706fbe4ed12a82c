#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace das::net {
namespace {

Network make_net(sim::Simulator& sim, LatencyPtr latency, bool fifo = true,
                 double bandwidth = 0.0) {
  Network::Config cfg;
  cfg.latency = std::move(latency);
  cfg.fifo_per_link = fifo;
  cfg.bandwidth_bytes_per_us = bandwidth;
  return Network{sim, cfg, Rng{1}};
}

TEST(LatencyModels, ConstantIsExact) {
  auto m = make_constant_latency(7.0);
  Rng rng{1};
  EXPECT_DOUBLE_EQ(m->sample(rng), 7.0);
  EXPECT_DOUBLE_EQ(m->mean(), 7.0);
}

TEST(LatencyModels, UniformBoundsAndMean) {
  auto m = make_uniform_latency(2.0, 10.0);
  Rng rng{2};
  for (int i = 0; i < 10000; ++i) {
    const Duration d = m->sample(rng);
    ASSERT_GE(d, 2.0);
    ASSERT_LT(d, 10.0);
  }
  EXPECT_DOUBLE_EQ(m->mean(), 6.0);
}

TEST(LatencyModels, LognormalEmpiricalMean) {
  auto m = make_lognormal_latency(20.0, 0.5);
  Rng rng{3};
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += m->sample(rng);
  EXPECT_NEAR(sum / n, 20.0, 0.3);
}

TEST(Network, DeliversAfterConstantLatency) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(5.0));
  SimTime delivered = -1;
  net.send(0, 1, 100, [&] { delivered = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(delivered, 5.0);
}

TEST(Network, BandwidthAddsSerialisationDelay) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(5.0), true, 10.0);
  SimTime delivered = -1;
  net.send(0, 1, 200, [&] { delivered = sim.now(); });  // 200B / 10B-per-us = 20us
  sim.run();
  EXPECT_DOUBLE_EQ(delivered, 25.0);
}

TEST(Network, FifoPreservesPerLinkOrderUnderJitter) {
  sim::Simulator sim;
  Network net = make_net(sim, make_uniform_latency(1.0, 100.0), true);
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) net.send(0, 1, 10, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 200; ++i) ASSERT_EQ(order[i], i);
}

TEST(Network, DifferentLinksCanReorder) {
  sim::Simulator sim;
  Network net = make_net(sim, make_uniform_latency(1.0, 100.0), true);
  std::vector<int> order;
  bool reordered = false;
  int expected = 0;
  for (int i = 0; i < 200; ++i) {
    const NodeId src = i % 4;
    net.send(src, 9, 10, [&, i] {
      if (i != expected) reordered = true;
      ++expected;
    });
  }
  sim.run();
  EXPECT_TRUE(reordered);  // cross-link ordering is NOT guaranteed
}

TEST(Network, NonFifoCanReorderSameLink) {
  sim::Simulator sim;
  Network net = make_net(sim, make_uniform_latency(1.0, 100.0), false);
  bool reordered = false;
  int expected = 0;
  for (int i = 0; i < 200; ++i) {
    net.send(0, 1, 10, [&, i] {
      if (i != expected) reordered = true;
      ++expected;
    });
  }
  sim.run();
  EXPECT_TRUE(reordered);
}

TEST(Network, StatsCountMessagesAndBytes) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  net.send(0, 1, 100, [] {});
  net.send(1, 0, 250, [] {});
  sim.run();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 350u);
}

TEST(Network, NullDeliveryThrows) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  EXPECT_THROW(net.send(0, 1, 10, nullptr), std::logic_error);
}

TEST(Network, LossDropsConfiguredFraction) {
  sim::Simulator sim;
  Network::Config cfg;
  cfg.latency = make_constant_latency(1.0);
  cfg.loss_probability = 0.25;
  Network net{sim, cfg, Rng{7}};
  int delivered = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) net.send(0, 1, 8, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(net.stats().messages_sent, static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(net.stats().messages_dropped) / n, 0.25, 0.01);
  EXPECT_EQ(delivered + static_cast<int>(net.stats().messages_dropped), n);
}

TEST(Network, ZeroLossDeliversEverything) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) net.send(0, 1, 8, [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

TEST(Network, InvalidLossProbabilityRejected) {
  sim::Simulator sim;
  Network::Config cfg;
  cfg.latency = make_constant_latency(1.0);
  cfg.loss_probability = 1.0;
  EXPECT_THROW((Network{sim, cfg, Rng{1}}), std::logic_error);
}

// The delivery callback must move through send() and the event queue, never
// copy: a copy would double the captured per-op state (an OpContext on the
// cluster path) on every message. Counted end to end: call site -> EventFn
// -> scheduler slot -> dispatch.
TEST(Network, DeliveryCallbackIsMovedNotCopied) {
  struct Probe {
    int* copies;
    int* moves;
    int* invoked;
    Probe(int* c, int* m, int* i) : copies(c), moves(m), invoked(i) {}
    Probe(const Probe& o)
        : copies(o.copies), moves(o.moves), invoked(o.invoked) {
      ++*copies;
    }
    Probe(Probe&& o) noexcept
        : copies(o.copies), moves(o.moves), invoked(o.invoked) {
      ++*moves;
    }
    void operator()() const { ++*invoked; }
  };
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  int copies = 0, moves = 0, invoked = 0;
  net.send(0, 1, 8, Probe{&copies, &moves, &invoked});
  sim.run();
  EXPECT_EQ(invoked, 1);
  EXPECT_EQ(copies, 0);
  // Bounded hand-offs: into the EventFn, through schedule, into the pooled
  // slot, out at dispatch. A regression to by-value plumbing shows up here.
  EXPECT_LE(moves, 4);
}

TEST(Network, ZeroLatencyDeliversImmediatelyInOrder) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(0.0));
  std::vector<int> order;
  net.send(0, 1, 1, [&] { order.push_back(1); });
  net.send(0, 1, 1, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

// --- fan-outs ------------------------------------------------------------
// A fan-out must decide every message exactly as a run of single sends does:
// the same partition drops (before any draw), the same loss and burst draws,
// the same arrival times and the same delivery order. Each round below sends
// one message from node 0 to each of nodes 1..8 — once as a fan-out, once as
// eight sends — over a cut link 0-3, a down receiver (node 5 drops what
// reaches it, like a crashed server) and random loss. A tail of single sends
// after the rounds shows both leave the RNG stream at the same point.

constexpr int kRounds = 64;
constexpr int kTailSends = 64;
constexpr NodeId kDownNode = 5;

struct Arrival {
  SimTime t;
  NodeId to;
  int round;
  std::uint32_t index;
  bool operator==(const Arrival&) const = default;
};

struct FanoutRun {
  std::vector<Arrival> arrivals;
  int dropped_at_receiver = 0;
  NetworkStats stats;
  std::uint64_t events = 0;
  std::uint64_t lane_events = 0;
};

FanoutRun run_rounds(const LatencyPtr& latency, bool batched) {
  sim::Simulator sim;
  Network::Config cfg;
  cfg.latency = latency;
  cfg.loss_probability = 0.2;
  cfg.num_nodes = 16;
  Network net{sim, cfg, Rng{7}};
  net.set_partitioned(0, 3, true);
  net.set_burst_loss(0.1);
  FanoutRun run;
  std::vector<std::vector<Message>> rounds(kRounds);
  const auto receive = [&](NodeId to, int round, std::uint32_t index) {
    if (to == kDownNode) {
      ++run.dropped_at_receiver;
      return;
    }
    run.arrivals.push_back({sim.now(), to, round, index});
  };
  for (int r = 0; r < kRounds; ++r) {
    sim.schedule_at(10.0 * r, [&, r] {
      std::vector<Message>& msgs = rounds[r];
      for (NodeId to = 1; to <= 8; ++to) {
        msgs.push_back({to, static_cast<Bytes>(16 + to * r)});
      }
      if (batched) {
        net.send_fanout(0, msgs, [&, r](std::uint32_t index) {
          return [&, r, index] {
            const std::vector<Message>& sent = rounds[r];
            if (index != kAllDelivered) {
              receive(sent[index].to, r, index);
              return;
            }
            for (std::uint32_t i = 0; i < sent.size(); ++i) {
              if (sent[i].delivered) receive(sent[i].to, r, i);
            }
          };
        });
        return;
      }
      for (std::uint32_t i = 0; i < msgs.size(); ++i) {
        net.send(0, msgs[i].to, msgs[i].size, [&, r, i] {
          receive(rounds[r][i].to, r, i);
        });
      }
    });
  }
  sim.schedule_at(10.0 * kRounds, [&] {
    for (std::uint32_t i = 0; i < kTailSends; ++i) {
      net.send(0, 2, 8, [&, i] { receive(2, kRounds, i); });
    }
  });
  sim.run();
  run.stats = net.stats();
  run.events = sim.events_dispatched();
  run.lane_events = sim.lane_dispatched();
  return run;
}

TEST(NetworkFanout, DecidesEveryMessageLikeSingleSends) {
  for (const bool jitter : {false, true}) {
    SCOPED_TRACE(jitter ? "lognormal latency" : "constant latency");
    const LatencyPtr latency = jitter ? make_lognormal_latency(5.0, 0.5)
                                      : make_constant_latency(5.0);
    const FanoutRun fanout = run_rounds(latency, true);
    const FanoutRun single = run_rounds(latency, false);
    EXPECT_EQ(fanout.arrivals, single.arrivals);
    EXPECT_EQ(fanout.dropped_at_receiver, single.dropped_at_receiver);
    EXPECT_EQ(fanout.stats.messages_sent, single.stats.messages_sent);
    EXPECT_EQ(fanout.stats.messages_dropped, single.stats.messages_dropped);
    EXPECT_EQ(fanout.stats.messages_dropped_partition,
              single.stats.messages_dropped_partition);
    EXPECT_EQ(fanout.stats.bytes_sent, single.stats.bytes_sent);
    // Every mechanism under test fired.
    EXPECT_GT(single.dropped_at_receiver, 0);
    EXPECT_GT(single.stats.messages_dropped_partition, 0u);
    EXPECT_GT(single.stats.messages_dropped,
              single.stats.messages_dropped_partition);
    EXPECT_EQ(fanout.stats.fanouts_sent,
              static_cast<std::uint64_t>(kRounds + kTailSends));
    EXPECT_EQ(single.stats.fanouts_sent,
              static_cast<std::uint64_t>(8 * kRounds + kTailSends));
    const std::uint64_t delivered =
        single.stats.messages_sent - single.stats.messages_dropped;
    if (jitter) {
      // One heap event per delivered message, as with single sends.
      EXPECT_EQ(fanout.lane_events, 0u);
      EXPECT_EQ(fanout.events, single.events);
    } else {
      // One lane event per fan-out that kept a message.
      EXPECT_EQ(single.lane_events, delivered);
      EXPECT_EQ(fanout.lane_events,
                fanout.stats.fanouts_sent - fanout.stats.fanouts_lost);
      EXPECT_LT(fanout.lane_events, single.lane_events);
    }
  }
}

TEST(NetworkFanout, AllDroppedSchedulesNothing) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  net.set_partitioned(0, 1, true);
  net.set_partitioned(0, 2, true);
  std::vector<Message> msgs = {{1, 8}, {2, 8}};
  int built = 0;
  const std::uint32_t events = net.send_fanout(0, msgs, [&](std::uint32_t) {
    ++built;
    return [] {};
  });
  EXPECT_EQ(events, 0u);
  EXPECT_EQ(built, 0);
  EXPECT_FALSE(msgs[0].delivered);
  EXPECT_FALSE(msgs[1].delivered);
  EXPECT_EQ(net.stats().fanouts_lost, 1u);
  EXPECT_TRUE(sim.empty());
}

}  // namespace
}  // namespace das::net
