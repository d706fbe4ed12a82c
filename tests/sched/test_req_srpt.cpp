// req-srpt: request-level SRPT on the total remaining demand, built by the
// factory as DasScheduler with deferral and aging off.
#include <gtest/gtest.h>

#include "sched/scheduler.hpp"
#include "sched_test_util.hpp"

namespace das::sched {
namespace {

using testing::OpBuilder;

SchedulerPtr req_srpt() { return make_scheduler(Policy::kReqSrpt); }

ProgressUpdate progress(double total) {
  ProgressUpdate u;
  u.remaining_total_us = total;
  return u;
}

TEST(ReqSrpt, OrdersByTotalRemainingDemand) {
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(101).total(300).build(), 0);
  s->enqueue(OpBuilder{2}.request(102).total(100).build(), 0);
  s->enqueue(OpBuilder{3}.request(103).total(200).build(), 0);
  EXPECT_EQ(s->dequeue(1).op_id, 2u);
  EXPECT_EQ(s->dequeue(1).op_id, 3u);
  EXPECT_EQ(s->dequeue(1).op_id, 1u);
}

TEST(ReqSrpt, SiblingOpsShareRequestKey) {
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(500).total(50).build(), 0);
  s->enqueue(OpBuilder{2}.request(500).total(50).build(), 1);
  s->enqueue(OpBuilder{3}.request(501).total(10).build(), 2);
  EXPECT_EQ(s->dequeue(3).op_id, 3u);  // smaller request first
  EXPECT_EQ(s->dequeue(3).op_id, 1u);  // then siblings in arrival order
  EXPECT_EQ(s->dequeue(3).op_id, 2u);
}

TEST(ReqSrpt, ProgressShrinksKeyAndReorders) {
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(601).total(300).build(), 0);
  s->enqueue(OpBuilder{2}.request(602).total(100).build(), 0);
  // Request 601's siblings elsewhere completed: now only 20us remain.
  s->on_request_progress(601, progress(20.0), 1.0);
  EXPECT_EQ(s->dequeue(2).op_id, 1u);
  EXPECT_EQ(s->dequeue(2).op_id, 2u);
}

TEST(ReqSrpt, ProgressGrowingKeyMovesOpBack) {
  // A re-key works in both directions: a revised estimate that raises a
  // request's remaining demand moves its op behind a now-smaller request.
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(611).total(1).build(), 0);
  s->enqueue(OpBuilder{2}.request(612).total(2).build(), 0);
  s->on_request_progress(611, progress(10.0), 1.0);
  EXPECT_EQ(s->dequeue(2).op_id, 2u);
  EXPECT_EQ(s->dequeue(2).op_id, 1u);
}

TEST(ReqSrpt, ProgressForUnknownRequestIsIgnored) {
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(1).total(10).build(), 0);
  s->on_request_progress(999, progress(1.0), 1.0);
  EXPECT_EQ(s->dequeue(1).op_id, 1u);
}

TEST(ReqSrpt, ProgressAfterDequeueIsIgnored) {
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(1).total(10).build(), 0);
  s->dequeue(1);
  s->on_request_progress(1, progress(5.0), 2.0);  // must not crash
  EXPECT_TRUE(s->empty());
}

TEST(ReqSrpt, ProgressUpdatesAllSiblingOps) {
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(700).total(500).build(), 0);
  s->enqueue(OpBuilder{2}.request(700).total(500).build(), 0);
  s->enqueue(OpBuilder{3}.request(701).total(100).build(), 0);
  s->on_request_progress(700, progress(10.0), 1.0);
  EXPECT_EQ(s->dequeue(1).op_id, 1u);
  EXPECT_EQ(s->dequeue(1).op_id, 2u);
  EXPECT_EQ(s->dequeue(1).op_id, 3u);
}

TEST(ReqSrpt, BacklogAccountingSurvivesProgress) {
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(1).demand(40).total(100).build(), 0);
  s->on_request_progress(1, progress(60.0), 1.0);
  EXPECT_DOUBLE_EQ(s->backlog_demand_us(), 40.0);  // demand, not key
  s->dequeue(1);
  EXPECT_DOUBLE_EQ(s->backlog_demand_us(), 0.0);
}

TEST(ReqSrpt, ProgressRewritesTheQueuedOpsKey) {
  // A preempted op re-enters the queue and is compared by the key it carries,
  // so a progress update must reach the op itself, not only the order index.
  const SchedulerPtr s = req_srpt();
  s->enqueue(OpBuilder{1}.request(800).total(100).build(), 0);
  s->on_request_progress(800, progress(10.0), 1.0);
  const OpContext served = s->dequeue(2);
  EXPECT_DOUBLE_EQ(served.total_demand_us, 10.0);
  // A request with 50us left must not preempt one with only 10us left.
  EXPECT_FALSE(s->preempts(OpBuilder{2}.request(801).total(50).build(), served));
}

}  // namespace
}  // namespace das::sched
