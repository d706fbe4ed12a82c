// DAS order-index equivalence: the slab + indexed-heap DasScheduler must make
// exactly the decisions of the std::set implementation it replaced. A
// reference copy of that implementation lives below; random operation
// sequences (enqueue, dequeue, progress, drain, speed estimates) at queue
// depths from 1 to 10k drive both side by side, and every dequeued op, every
// drained op and the mechanism counters must match after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "sched/das.hpp"
#include "sched/order_heap.hpp"
#include "sched/scheduler_base.hpp"

namespace das::sched {
namespace {

/// The std::set DasScheduler as it stood before the order index, minus the
/// tracer hooks (which never influence a decision).
class ReferenceDas final : public SchedulerBase {
 public:
  explicit ReferenceDas(DasScheduler::Options options) : options_(options) {}

  void enqueue(const OpContext& op, SimTime now) override {
    const Handle h = next_handle_++;
    Record rec;
    rec.op = op;
    rec.op.enqueued_at = now;
    note_in(rec.op);
    place(h, rec, now);
    fifo_.push_back(h);
    by_request_[op.request_id].push_back(h);
    records_.emplace(h, std::move(rec));
  }

  OpContext dequeue(SimTime now) override {
    if (options_.max_wait_us != kTimeInfinity) {
      while (!fifo_.empty() && !records_.contains(fifo_.front())) fifo_.pop_front();
      if (!fifo_.empty()) {
        const Handle h = fifo_.front();
        if (now - records_.at(h).op.enqueued_at > options_.max_wait_us) {
          fifo_.pop_front();
          ++aging_promotions_;
          return finish(h, now);
        }
      }
    }
    migrate_due(now);
    if (!active_.empty()) return finish(active_.begin()->h, now);
    return finish(deferred_.begin()->h, now);
  }

  std::vector<OpContext> drain(SimTime now) override {
    std::vector<OpContext> out;
    while (!fifo_.empty()) {
      const Handle h = fifo_.front();
      fifo_.pop_front();
      if (!records_.contains(h)) continue;
      out.push_back(finish(h, now));
    }
    return out;
  }

  void on_request_progress(RequestId request, const ProgressUpdate& update,
                           SimTime now) override {
    const auto it = by_request_.find(request);
    if (it == by_request_.end()) return;
    for (const Handle h : it->second) {
      Record& rec = records_.at(h);
      if (rec.op.remaining_critical_us == update.remaining_critical_us &&
          rec.op.est_other_completion == update.est_other_completion &&
          rec.op.total_demand_us == update.remaining_total_us) {
        continue;
      }
      unlink(h, rec, now);
      rec.op.remaining_critical_us = update.remaining_critical_us;
      rec.op.est_other_completion = update.est_other_completion;
      rec.op.total_demand_us = update.remaining_total_us;
      place(h, rec, now);
      ++reranks_;
    }
  }

  void on_speed_estimate(double speed) override {
    if (options_.adaptive) mu_hat_ = speed;
  }

  std::string name() const override { return "das-reference"; }
  MechanismCounters mechanism_counters() const override {
    return {total_deferrals_, resumes_, aging_promotions_, reranks_};
  }
  std::size_t deferred_size() const override { return deferred_.size(); }

 private:
  using Handle = std::uint64_t;
  struct OrderKey {
    double k;
    Handle h;
    bool operator<(const OrderKey& o) const { return k != o.k ? k < o.k : h < o.h; }
  };
  struct Record {
    OpContext op;
    bool in_deferred = false;
    SimTime defer_started = 0;
  };

  double active_key(const OpContext& op) const {
    return options_.primary_key == DasScheduler::PrimaryKey::kTotalRemaining
               ? op.total_demand_us
               : op.remaining_critical_us;
  }
  bool safe_to_defer(SimTime est_other_completion, SimTime now) const {
    if (!options_.defer) return false;
    if (est_other_completion <= 0) return false;
    return est_other_completion - now >
           backlog_demand_us() / mu_hat_ * options_.defer_margin;
  }
  void place(Handle h, Record& rec, SimTime now) {
    rec.in_deferred = safe_to_defer(rec.op.est_other_completion, now);
    if (rec.in_deferred) {
      ++total_deferrals_;
      rec.defer_started = now;
      deferred_.insert(OrderKey{rec.op.est_other_completion, h});
    } else {
      active_.insert(OrderKey{active_key(rec.op), h});
    }
  }
  void unlink(Handle h, Record& rec, SimTime now) {
    auto& set = rec.in_deferred ? deferred_ : active_;
    const double key =
        rec.in_deferred ? rec.op.est_other_completion : active_key(rec.op);
    set.erase(OrderKey{key, h});
    if (rec.in_deferred) {
      rec.op.deferred_wait_us += now - rec.defer_started;
      rec.in_deferred = false;
    }
  }
  OpContext finish(Handle h, SimTime now) {
    auto it = records_.find(h);
    unlink(h, it->second, now);
    OpContext op = std::move(it->second.op);
    auto by_req = by_request_.find(op.request_id);
    std::erase(by_req->second, h);
    if (by_req->second.empty()) by_request_.erase(by_req);
    records_.erase(it);
    note_out(op);
    return op;
  }
  void migrate_due(SimTime now) {
    while (!deferred_.empty()) {
      const OrderKey front = *deferred_.begin();
      if (safe_to_defer(front.k, now)) break;
      deferred_.erase(deferred_.begin());
      Record& rec = records_.at(front.h);
      rec.op.deferred_wait_us += now - rec.defer_started;
      rec.in_deferred = false;
      ++resumes_;
      active_.insert(OrderKey{active_key(rec.op), front.h});
    }
  }

  DasScheduler::Options options_;
  double mu_hat_ = 1.0;
  FlatMap<Handle, Record> records_;
  std::set<OrderKey> active_;
  std::set<OrderKey> deferred_;
  std::deque<Handle> fifo_;
  FlatMap<RequestId, std::vector<Handle>> by_request_;
  Handle next_handle_ = 0;
  std::uint64_t total_deferrals_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t aging_promotions_ = 0;
  std::uint64_t reranks_ = 0;
};

void expect_same_op(const OpContext& a, const OpContext& b) {
  EXPECT_EQ(a.op_id, b.op_id);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.demand_us, b.demand_us);
  EXPECT_EQ(a.remaining_critical_us, b.remaining_critical_us);
  EXPECT_EQ(a.est_other_completion, b.est_other_completion);
  EXPECT_EQ(a.total_demand_us, b.total_demand_us);
  EXPECT_EQ(a.enqueued_at, b.enqueued_at);
  EXPECT_EQ(a.deferred_wait_us, b.deferred_wait_us);
}

void expect_same_counters(const Scheduler& a, const Scheduler& b) {
  const MechanismCounters ca = a.mechanism_counters();
  const MechanismCounters cb = b.mechanism_counters();
  ASSERT_EQ(ca.ops_deferred, cb.ops_deferred);
  ASSERT_EQ(ca.ops_resumed, cb.ops_resumed);
  ASSERT_EQ(ca.ops_aged, cb.ops_aged);
  ASSERT_EQ(ca.reranks_applied, cb.reranks_applied);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.deferred_size(), b.deferred_size());
  ASSERT_EQ(a.backlog_demand_us(), b.backlog_demand_us());
}

/// Drives both schedulers with one random sequence that climbs to and then
/// hovers around `depth` queued ops. Keys are drawn from small grids so
/// equal keys — the arrival-order tie-break — are common. Returns the
/// mechanism counters and the deepest queue reached.
std::pair<MechanismCounters, std::size_t> drive(
    const DasScheduler::Options& options, std::size_t depth, std::uint64_t seed) {
  SCOPED_TRACE("depth " + std::to_string(depth));
  DasScheduler das{options};
  ReferenceDas reference{options};
  Rng rng{seed};
  SimTime now = 0;
  OperationId next_op = 0;
  // About three queued ops per request, like a multiget's siblings.
  const std::uint64_t requests = std::max<std::uint64_t>(2, depth / 3);
  const double horizon = 60.0 * static_cast<double>(depth);
  const auto est_other = [&] {
    if (rng.chance(0.3)) return 0.0;
    return now + 5.0 * static_cast<double>(rng.next_below(
                           static_cast<std::uint64_t>(horizon / 5.0) + 2));
  };
  const std::size_t steps = std::max<std::size_t>(3000, 8 * depth);
  std::size_t deepest = 0;
  ProgressUpdate last_update;
  RequestId last_request = 0;
  std::uint64_t dequeues = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    now += 5.0 * static_cast<double>(rng.next_below(3));
    const double u = rng.next_double();
    const double enqueue_p = das.size() < depth ? 0.5 : 0.2;
    if (u < enqueue_p || das.empty()) {
      OpContext op;
      op.op_id = next_op++;
      op.request_id = rng.next_below(requests);
      op.demand_us = 5.0 * static_cast<double>(1 + rng.next_below(6));
      op.total_demand_us = 10.0 * static_cast<double>(1 + rng.next_below(20));
      op.remaining_critical_us = 10.0 * static_cast<double>(1 + rng.next_below(8));
      op.est_other_completion = est_other();
      das.enqueue(op, now);
      reference.enqueue(op, now);
    } else if (u < enqueue_p + 0.3) {
      ++dequeues;
      expect_same_op(das.dequeue(now), reference.dequeue(now));
    } else if (u < enqueue_p + 0.3 + 0.35) {
      // Resend the previous update now and then: unchanged tags take the
      // no-op path.
      if (!rng.chance(0.1)) {
        last_request = rng.next_below(requests);
        last_update.remaining_critical_us =
            10.0 * static_cast<double>(rng.next_below(8));
        last_update.est_other_completion = est_other();
        last_update.remaining_total_us =
            10.0 * static_cast<double>(rng.next_below(20));
      }
      das.on_request_progress(last_request, last_update, now);
      reference.on_request_progress(last_request, last_update, now);
    } else if (u < 0.999) {
      const double speed = 0.5 + 0.25 * static_cast<double>(rng.next_below(5));
      das.on_speed_estimate(speed);
      reference.on_speed_estimate(speed);
    } else {
      const std::vector<OpContext> a = das.drain(now);
      const std::vector<OpContext> b = reference.drain(now);
      EXPECT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        expect_same_op(a[i], b[i]);
      }
    }
    expect_same_counters(das, reference);
    if (::testing::Test::HasFailure()) return {};
    deepest = std::max(deepest, das.size());
    if (step % 1024 == 0) {
      EXPECT_NO_THROW(das.check_invariants());
    }
  }
  EXPECT_NO_THROW(das.check_invariants());
  while (!das.empty()) {
    now += 5.0;
    expect_same_op(das.dequeue(now), reference.dequeue(now));
    expect_same_counters(das, reference);
    if (::testing::Test::HasFailure()) return {};
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(dequeues, 0u);
  return {das.mechanism_counters(), deepest};
}

struct OptionCase {
  const char* name;
  DasScheduler::Options options;
};

void PrintTo(const OptionCase& c, std::ostream* os) { *os << c.name; }

DasScheduler::Options with(void (*edit)(DasScheduler::Options&)) {
  DasScheduler::Options options;
  edit(options);
  return options;
}

class DasOrderIndexEquivalence : public ::testing::TestWithParam<OptionCase> {};

TEST_P(DasOrderIndexEquivalence, MatchesSetImplementation) {
  const DasScheduler::Options& options = GetParam().options;
  MechanismCounters total;
  std::uint64_t seed = 1;
  for (const std::size_t depth : {1u, 3u, 10u, 100u, 1000u, 10000u}) {
    const auto [counters, deepest] = drive(options, depth, seed++);
    if (HasFailure()) return;
    EXPECT_GE(deepest, depth);
    total.ops_deferred += counters.ops_deferred;
    total.ops_resumed += counters.ops_resumed;
    total.ops_aged += counters.ops_aged;
    total.reranks_applied += counters.reranks_applied;
  }
  // Guards the guard: every mechanism the options enable actually fired.
  EXPECT_GT(total.reranks_applied, 0u);
  EXPECT_EQ(total.ops_deferred > 0, options.defer);
  EXPECT_EQ(total.ops_resumed > 0, options.defer);
  EXPECT_EQ(total.ops_aged > 0, options.max_wait_us != kTimeInfinity);
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, DasOrderIndexEquivalence,
    ::testing::Values(
        OptionCase{"das", {}},
        OptionCase{"short_aging",
                   with([](auto& o) { o.max_wait_us = 400.0; })},
        OptionCase{"no_aging",
                   with([](auto& o) { o.max_wait_us = kTimeInfinity; })},
        OptionCase{"no_defer", with([](auto& o) { o.defer = false; })},
        OptionCase{"not_adaptive", with([](auto& o) { o.adaptive = false; })},
        OptionCase{"critical_key",
                   with([](auto& o) {
                     o.primary_key = DasScheduler::PrimaryKey::kCriticalPath;
                   })},
        OptionCase{"loose_margin", with([](auto& o) { o.defer_margin = 0.25; })}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// OrderHeap::update re-keys an entry in place. Against a std::set of
// (key, serial) — the order the heap promises — random pushes, erases and
// re-keys (up, down and unchanged) must keep the same minimum, a consistent
// position index, and finally pop everything in the set's order.
TEST(OrderHeapUpdate, MatchesOrderedSetUnderRandomRekeys) {
  using Key = std::pair<double, std::uint64_t>;
  Rng rng{20261018};
  OrderHeap heap;
  std::set<Key> reference;
  std::vector<std::uint32_t> pos;
  std::vector<Key> key_of;  // per slot; serial == slot
  std::vector<std::uint32_t> live;
  std::uint64_t updates = 0;
  const auto check_positions = [&] {
    for (std::size_t i = 0; i < heap.size(); ++i) {
      ASSERT_EQ(pos[heap.entries()[i].slot], i);
    }
  };
  for (int step = 0; step < 20000; ++step) {
    const double u = rng.next_double();
    const double key = static_cast<double>(rng.next_below(50));
    if (live.empty() || u < 0.35) {
      const auto slot = static_cast<std::uint32_t>(key_of.size());
      key_of.push_back({key, slot});
      pos.push_back(0);
      heap.push({key, slot, slot}, pos);
      reference.insert(key_of[slot]);
      live.push_back(slot);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      const std::uint32_t slot = live[pick];
      reference.erase(key_of[slot]);
      if (u < 0.5) {
        heap.erase(pos[slot], pos);
        live[pick] = live.back();
        live.pop_back();
      } else {
        heap.update(pos[slot], key, pos);
        key_of[slot].first = key;
        reference.insert(key_of[slot]);
        ++updates;
      }
    }
    ASSERT_EQ(heap.size(), reference.size());
    ASSERT_TRUE(heap.is_heap());
    if (!heap.empty()) {
      ASSERT_EQ(heap.top().key, reference.begin()->first);
      ASSERT_EQ(heap.top().serial, reference.begin()->second);
    }
    if (step % 512 == 0) check_positions();
  }
  check_positions();
  EXPECT_GT(updates, 5000u);
  while (!heap.empty()) {
    ASSERT_EQ(heap.top().key, reference.begin()->first);
    ASSERT_EQ(heap.top().serial, reference.begin()->second);
    reference.erase(reference.begin());
    heap.erase(0, pos);
  }
  EXPECT_TRUE(reference.empty());
}

}  // namespace
}  // namespace das::sched
