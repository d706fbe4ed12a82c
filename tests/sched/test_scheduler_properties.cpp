// Cross-policy behavioural properties: equivalences and monotonicities that
// hold by construction and catch regressions no single-policy test sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sched/basic_policies.hpp"
#include "sched/das.hpp"
#include "sched/rein.hpp"
#include "sched/scheduler.hpp"
#include "sched_test_util.hpp"

namespace das::sched {
namespace {

using testing::OpBuilder;

/// Random op stream shared by equivalence checks.
std::vector<OpContext> random_stream(std::size_t n, std::uint64_t seed,
                                     SimTime spacing = 1.0) {
  Rng rng{seed};
  std::vector<OpContext> ops;
  ops.reserve(n);
  for (OperationId i = 0; i < n; ++i) {
    OpContext op = OpBuilder{i}
                       .request(rng.next_below(n / 3 + 1))
                       .demand(rng.uniform(1, 50))
                       .total(rng.uniform(1, 400))
                       .critical(rng.uniform(1, 100))
                       .other_completion(rng.chance(0.4)
                                             ? spacing * static_cast<double>(i) +
                                                   rng.uniform(0, 1000)
                                             : 0)
                       .deadline(spacing * static_cast<double>(i) + 500.0)
                       .build();
    ops.push_back(op);
  }
  return ops;
}

/// Interleaved enqueue/dequeue service order under a policy.
std::vector<OperationId> service_order(Scheduler& s,
                                       const std::vector<OpContext>& ops,
                                       double dequeue_prob, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<OperationId> order;
  SimTime now = 0;
  std::size_t next = 0;
  while (order.size() < ops.size()) {
    now += 1.0;
    if (next < ops.size() && (s.empty() || !rng.chance(dequeue_prob))) {
      s.enqueue(ops[next++], now);
    } else if (!s.empty()) {
      order.push_back(s.dequeue(now).op_id);
    }
  }
  return order;
}

TEST(PolicyProperties, EdfWithUniformOffsetEqualsFcfs) {
  // Deadlines all arrival + constant: EDF order must equal FCFS order.
  const auto ops = random_stream(400, 11);
  FcfsScheduler fcfs;
  const SchedulerPtr edf = make_scheduler(Policy::kEdf);
  EXPECT_EQ(service_order(fcfs, ops, 0.5, 99), service_order(*edf, ops, 0.5, 99));
}

TEST(PolicyProperties, DasNoAgingEqualsDasWhenNothingStarves) {
  // With gentle interleaving nothing waits anywhere near the default 50ms
  // bound, so aging never fires and das == das-noaging exactly.
  const auto ops = random_stream(400, 13);
  const SchedulerPtr das = make_scheduler(Policy::kDas);
  const SchedulerPtr noaging = make_scheduler(Policy::kDasNoAging);
  EXPECT_EQ(service_order(*das, ops, 0.5, 7), service_order(*noaging, ops, 0.5, 7));
}

TEST(PolicyProperties, DasNdEqualsReqSrptOrderOnSharedKeys) {
  // das-nd (no deferral) orders purely by total remaining with arrival
  // tie-breaks; req-srpt is the same with aging off too, so the two agree
  // whenever nothing waits out das-nd's aging bound.
  const auto ops = random_stream(400, 17);
  const SchedulerPtr nd = make_scheduler(Policy::kDasNoDefer);
  const SchedulerPtr srpt = make_scheduler(Policy::kReqSrpt);
  EXPECT_EQ(service_order(*nd, ops, 0.5, 3), service_order(*srpt, ops, 0.5, 3));
}

TEST(PolicyProperties, LargerDeferMarginDefersLess) {
  const auto ops = random_stream(600, 19);
  const auto deferrals = [&](double margin) {
    DasScheduler::Options opt;
    opt.defer_margin = margin;
    DasScheduler s{opt};
    service_order(s, ops, 0.5, 5);
    return s.total_deferrals();
  };
  const auto tight = deferrals(0.5);
  const auto loose = deferrals(4.0);
  EXPECT_GT(tight, 0u);
  EXPECT_LT(loose, tight);
}

TEST(PolicyProperties, EveryPolicyIsWorkConserving) {
  // A scheduler must hand out an op whenever it holds one: drain the whole
  // queue with no enqueues in between and count every op exactly once.
  for (const Policy policy : all_policies()) {
    SCOPED_TRACE(to_string(policy));
    const SchedulerPtr s = make_scheduler(policy);
    const auto ops = random_stream(300, 23);
    SimTime now = 0;
    for (const OpContext& op : ops) s->enqueue(op, now += 1.0);
    std::size_t served = 0;
    while (!s->empty()) {
      s->dequeue(now += 1.0);
      ++served;
    }
    EXPECT_EQ(served, ops.size());
    EXPECT_DOUBLE_EQ(s->backlog_demand_us(), 0.0);
  }
}

TEST(PolicyProperties, PrioritiesNeverAffectWhatOnlyWhen) {
  // All policies serve the same multiset of ops from the same stream.
  const auto ops = random_stream(500, 29);
  std::vector<OperationId> reference;
  for (const Policy policy : all_policies()) {
    SCOPED_TRACE(to_string(policy));
    const SchedulerPtr s = make_scheduler(policy);
    auto order = service_order(*s, ops, 0.5, 31);
    std::sort(order.begin(), order.end());
    if (reference.empty()) {
      reference = order;
    } else {
      EXPECT_EQ(order, reference);
    }
  }
}

TEST(PolicyProperties, ReinDegradesToFcfsWithinOneLevel) {
  // If every request has the same bottleneck, all ops land in level 0 and
  // Rein is plain FCFS.
  ReinSbfScheduler::Options opt;
  ReinSbfScheduler rein{opt};
  FcfsScheduler fcfs;
  std::vector<OpContext> ops;
  for (OperationId i = 0; i < 200; ++i)
    ops.push_back(OpBuilder{i}.bottleneck(4, 100).build());
  EXPECT_EQ(service_order(rein, ops, 0.5, 37), service_order(fcfs, ops, 0.5, 37));
}

}  // namespace
}  // namespace das::sched
