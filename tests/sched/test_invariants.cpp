// The invariant-audit layer must (a) stay silent on healthy structures and
// (b) throw AuditError when internal state is corrupted on purpose. The
// corruptions below simulate exactly the drift bugs the audits exist to
// catch: lost order entries, desynced accounting, negative remaining work,
// broken heap order, and queues that lose the arrival order aging relies on.
#include <gtest/gtest.h>

#include "common/invariant.hpp"
#include "sched/basic_policies.hpp"
#include "sched/das.hpp"
#include "sched/rein.hpp"
#include "sched_test_util.hpp"

namespace das::sched {

/// White-box corruption hooks; friend of every scheduler and the order heap.
struct TestCorruptor {
  static void bump_count(SchedulerBase& s) { ++s.count_; }
  static void poison_backlog(SchedulerBase& s) { s.backlog_us_ = -5.0; }

  static void break_heap_order(FrozenKeyScheduler& s) {
    std::swap(s.heap_.front(), s.heap_.back());
  }
  static void negate_demand(FrozenKeyScheduler& s) {
    s.heap_.back().op.demand_us = -1.0;
  }
  static void drop_entry(FrozenKeyScheduler& s) { s.heap_.pop_back(); }
  static void stale_key(FrozenKeyScheduler& s) { s.heap_.back().key += 1e9; }

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
  static void negate_total(DasScheduler& s) {
    s.slab_.front().op.total_demand_us = -1.0;
  }

  static void swap_level_order(ReinSbfScheduler& s) {
    auto& level = s.levels_.front();
    std::swap(level.front().arrival_seq, level.back().arrival_seq);
  }
  static void drop_queued(ReinSbfScheduler& s) { s.levels_.front().pop_back(); }
  static void negate_threshold(ReinSbfScheduler& s) {
    s.ewma_bottleneck_ = -1.0;
  }

  static void reorder_fcfs(FcfsScheduler& s) {
    std::swap(s.queue_.front().enqueued_at, s.queue_.back().enqueued_at);
  }
};

namespace {

using testing::OpBuilder;

OpContext op(OperationId id, double demand = 10.0) {
  return OpBuilder{id}.demand(demand).build();
}

FrozenKeyScheduler sjf() { return FrozenKeyScheduler{&OpContext::demand_us, "sjf"}; }
FrozenKeyScheduler edf() { return FrozenKeyScheduler{&OpContext::deadline, "edf"}; }

/// req-srpt as the factory builds it: DAS with deferral and aging off.
DasScheduler::Options req_srpt_options() {
  DasScheduler::Options opt;
  opt.defer = false;
  opt.max_wait_us = kTimeInfinity;
  return opt;
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
  FrozenKeyScheduler sjf_s = sjf();
  FrozenKeyScheduler edf_s = edf();
  DasScheduler srpt{req_srpt_options()};
  ReinSbfScheduler rein{{}};
  DasScheduler das{{}};
  ASSERT_EQ(srpt.name(), "req-srpt");
  for (Scheduler* s : std::initializer_list<Scheduler*>{&fcfs, &random, &sjf_s,
                                                        &edf_s, &srpt, &rein, &das}) {
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

TEST(InvariantAudit, HealthyFrozenKeyHeapPasses) {
  // Many equal keys and a partial drain exercise the arrival tie-break.
  FrozenKeyScheduler s = sjf();
  for (int i = 0; i < 32; ++i) {
    s.enqueue(op(static_cast<OperationId>(i), static_cast<double>(i % 3)),
              static_cast<double>(i));
  }
  for (int i = 0; i < 11; ++i) {
    s.dequeue(100.0);
    EXPECT_NO_THROW(s.check_invariants());
  }
}

// --- accounting corruption (shared SchedulerBase layer) ---------------------

TEST(InvariantAudit, CountDriftThrows) {
  FcfsScheduler s;
  fill(s, 4);
  TestCorruptor::bump_count(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, NegativeBacklogOnEmptyThrows) {
  FrozenKeyScheduler s = sjf();
  TestCorruptor::poison_backlog(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// --- frozen-key heap corruption (sjf / edf) ----------------------------------

TEST(InvariantAudit, FrozenKeyHeapOrderBrokenThrows) {
  FrozenKeyScheduler s = edf();
  for (int i = 0; i < 4; ++i) {
    s.enqueue(OpBuilder{static_cast<OperationId>(i)}.deadline(100.0 + i).build(),
              static_cast<double>(i));
  }
  TestCorruptor::break_heap_order(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, FrozenKeyNegativeDemandThrows) {
  FrozenKeyScheduler s = sjf();
  fill(s, 3);
  TestCorruptor::negate_demand(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, FrozenKeySizeDriftThrows) {
  FrozenKeyScheduler s = sjf();
  fill(s, 3);
  TestCorruptor::drop_entry(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, FrozenKeyStaleKeyThrows) {
  // The last entry is a leaf, so raising its key keeps the heap order: only
  // the key-matches-its-op audit can catch it.
  FrozenKeyScheduler s = sjf();
  fill(s, 4);
  TestCorruptor::stale_key(s);
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

// --- Rein / req-srpt corruption --------------------------------------------------

TEST(InvariantAudit, ReinLevelOutOfArrivalOrderThrows) {
  // Aging serves the oldest level front, which is the globally oldest op
  // only while every level stays in arrival order.
  ReinSbfScheduler s{{}};
  fill(s, 4);  // equal bottlenecks: every op lands in level 0
  TestCorruptor::swap_level_order(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, ReinSizeDriftThrows) {
  ReinSbfScheduler s{{}};
  fill(s, 4);
  TestCorruptor::drop_queued(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, ReinNegativeThresholdThrows) {
  ReinSbfScheduler s{{}};
  fill(s, 2);
  TestCorruptor::negate_threshold(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, SrptKeyIndexLossThrows) {
  DasScheduler s{req_srpt_options()};
  fill(s, 3);
  TestCorruptor::unlink_active(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, SrptNegativeRemainingThrows) {
  DasScheduler s{req_srpt_options()};
  fill(s, 3);
  TestCorruptor::negate_total(s);
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
