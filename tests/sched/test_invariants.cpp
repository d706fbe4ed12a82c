// The invariant-audit layer must (a) stay silent on healthy structures and
// (b) throw AuditError when internal state is corrupted on purpose. The
// corruptions below simulate exactly the drift bugs the audits exist to
// catch: lost order entries, desynced accounting, negative remaining work,
// and aging indexes that lose track of queued operations.
#include <gtest/gtest.h>

#include "common/invariant.hpp"
#include "sched/basic_policies.hpp"
#include "sched/das.hpp"
#include "sched/keyed_queue.hpp"
#include "sched/rein.hpp"
#include "sched/req_srpt.hpp"
#include "sched_test_util.hpp"

namespace das::sched {

/// White-box corruption hooks; friend of the queue and every scheduler.
struct TestCorruptor {
  static void bump_count(SchedulerBase& s) { ++s.count_; }
  static void poison_backlog(SchedulerBase& s) { s.backlog_us_ = -5.0; }

  template <typename Key>
  static void drop_op(KeyedQueue<Key>& q) {
    q.ops_.erase(q.ops_.begin());
  }
  template <typename Key>
  static void negate_demand(KeyedQueue<Key>& q) {
    q.ops_.begin()->second.demand_us = -1.0;
  }
  template <typename Key>
  static void duplicate_order_entry(KeyedQueue<Key>& q, Key other_key) {
    const auto front = *q.order_.begin();
    q.order_.insert({std::move(other_key), front.handle});
    q.ops_.emplace(q.next_seq_ + 100, OpContext{});  // keep sizes equal
  }

  static void lose_fifo_entry(DasScheduler& s) { s.fifo_.pop_front(); }
  static void unlink_active(DasScheduler& s) {
    s.active_.erase(0, s.heap_pos_);  // the record still claims membership
  }
  static void stale_active_key(DasScheduler& s) {
    // The last entry is a leaf, so raising its key keeps the heap property:
    // only the key-freshness audit can catch it.
    s.active_.entries_.back().key += 1e9;
  }
  static void negate_remaining(DasScheduler& s) {
    s.slab_.front().op.remaining_critical_us = -1.0;
  }

  static void drop_key_index(ReqSrptScheduler& s) {
    s.key_of_.erase(s.key_of_.begin());
  }
  static void negate_key_index(ReqSrptScheduler& s) {
    s.key_of_.begin()->second = -1.0;
  }

  static void lose_fifo_entry(ReinSbfScheduler& s) { s.fifo_.pop_front(); }
  static void negate_threshold(ReinSbfScheduler& s) {
    s.ewma_bottleneck_ = -1.0;
  }

  static void reorder_fcfs(FcfsScheduler& s) {
    std::swap(s.queue_.front().enqueued_at, s.queue_.back().enqueued_at);
  }

  static KeyedQueue<double>& sjf_queue(SjfScheduler& s) { return s.queue_; }
};

namespace {

using testing::OpBuilder;

OpContext op(OperationId id, double demand = 10.0) {
  return OpBuilder{id}.demand(demand).build();
}

template <typename S>
void fill(S& s, int n) {
  for (int i = 0; i < n; ++i) {
    s.enqueue(op(static_cast<OperationId>(i), 10.0 + i), static_cast<double>(i));
  }
}

// --- healthy structures audit clean ----------------------------------------

TEST(InvariantAudit, HealthySchedulersPass) {
  FcfsScheduler fcfs;
  RandomScheduler random{7};
  SjfScheduler sjf;
  EdfScheduler edf;
  ReqSrptScheduler srpt;
  ReinSbfScheduler rein{{}};
  DasScheduler das{{}};
  for (Scheduler* s : std::initializer_list<Scheduler*>{&fcfs, &random, &sjf,
                                                        &edf, &srpt, &rein, &das}) {
    EXPECT_NO_THROW(s->check_invariants()) << "empty " << s->name();
    for (int i = 0; i < 16; ++i) {
      s->enqueue(op(static_cast<OperationId>(i), 5.0 + i), static_cast<double>(i));
    }
    EXPECT_NO_THROW(s->check_invariants()) << "filled " << s->name();
    for (int i = 0; i < 9; ++i) s->dequeue(100.0);
    EXPECT_NO_THROW(s->check_invariants()) << "drained " << s->name();
    while (!s->empty()) s->dequeue(200.0);
    EXPECT_NO_THROW(s->check_invariants()) << "empty again " << s->name();
  }
}

TEST(InvariantAudit, HealthyKeyedQueuePasses) {
  KeyedQueue<double> q;
  EXPECT_NO_THROW(q.check_invariants());
  for (int i = 0; i < 8; ++i) {
    q.insert(static_cast<double>(i % 3), op(static_cast<OperationId>(i)));
  }
  q.pop_min();
  EXPECT_NO_THROW(q.check_invariants());
}

// --- accounting corruption (shared SchedulerBase layer) ---------------------

TEST(InvariantAudit, CountDriftThrows) {
  FcfsScheduler s;
  fill(s, 4);
  TestCorruptor::bump_count(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, NegativeBacklogOnEmptyThrows) {
  SjfScheduler s;
  TestCorruptor::poison_backlog(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// --- KeyedQueue corruption --------------------------------------------------

TEST(InvariantAudit, KeyedQueueLostOpThrows) {
  KeyedQueue<double> q;
  q.insert(1.0, op(1));
  q.insert(2.0, op(2));
  TestCorruptor::drop_op(q);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, KeyedQueueNegativeDemandThrows) {
  KeyedQueue<double> q;
  q.insert(1.0, op(1));
  TestCorruptor::negate_demand(q);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, KeyedQueueDuplicatedHandleThrows) {
  KeyedQueue<double> q;
  q.insert(1.0, op(1));
  TestCorruptor::duplicate_order_entry(q, 9.0);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, CorruptedKeyedQueueFailsOwningScheduler) {
  // The SJF audit delegates to its queue, so queue corruption surfaces
  // through the scheduler's own check_invariants().
  SjfScheduler s;
  fill(s, 3);
  TestCorruptor::negate_demand(TestCorruptor::sjf_queue(s));
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// --- DAS corruption ----------------------------------------------------------

TEST(InvariantAudit, DasAgingFifoLossThrows) {
  DasScheduler s{{}};
  fill(s, 4);
  TestCorruptor::lose_fifo_entry(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, DasOrderSetDesyncThrows) {
  DasScheduler s{{}};
  fill(s, 4);
  TestCorruptor::unlink_active(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, DasStaleOrderingKeyThrows) {
  DasScheduler s{{}};
  fill(s, 4);
  TestCorruptor::stale_active_key(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, DasNegativeRemainingThrows) {
  DasScheduler s{{}};
  fill(s, 2);
  TestCorruptor::negate_remaining(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// --- Rein / SRPT corruption --------------------------------------------------

TEST(InvariantAudit, ReinAgingFifoLossThrows) {
  ReinSbfScheduler s{{}};
  fill(s, 4);
  TestCorruptor::lose_fifo_entry(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, ReinNegativeThresholdThrows) {
  ReinSbfScheduler s{{}};
  fill(s, 2);
  TestCorruptor::negate_threshold(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, SrptKeyIndexLossThrows) {
  ReqSrptScheduler s;
  fill(s, 3);
  TestCorruptor::drop_key_index(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, SrptNegativeRemainingThrows) {
  ReqSrptScheduler s;
  fill(s, 3);
  TestCorruptor::negate_key_index(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// --- FCFS ordering -----------------------------------------------------------

TEST(InvariantAudit, FcfsOutOfOrderThrows) {
  FcfsScheduler s;
  fill(s, 4);
  TestCorruptor::reorder_fcfs(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

}  // namespace
}  // namespace das::sched
