// DAS — the Distributed Adaptive Scheduler (the paper's contribution).
//
// "A distributed combination of the largest remaining processing time last
// and shortest remaining processing time first algorithms" (the abstract)
// maps onto two mechanisms driven by client-computed tags:
//
//   SRPT-first — the runnable queue is ordered by the request's REMAINING
//       PROCESSING TIME: its total remaining service demand across all
//       servers (`total_demand_us`, shrunk by progress messages as siblings
//       complete). Requests that need the least further service finish
//       first, draining the in-flight population fastest — the classic
//       mean-flow-time argument, lifted to the fork-join setting. The key
//       deliberately contains no queueing-delay term: queueing is the
//       scheduler's own decision variable, and folding it into the priority
//       collapses the ordering back to FCFS under load.
//
//   LRPT-last — an operation whose request still has a LARGE remaining time
//       elsewhere gains nothing from running early here. The client tags
//       each op with `est_other_completion`, the earliest ABSOLUTE time its
//       request could complete considering only siblings on OTHER servers
//       (tag time + rtt + advertised delay + service). While that bound lies
//       beyond this server's drain horizon (backlog / mu_hat), even serving
//       the op dead last cannot hurt its request, so it parks in a deferred
//       set and yields to operations on their request's critical path.
//
// Adaptivity enters in three places: the client's per-server mu/delay
// estimates feeding the tags (learned from response piggybacks), the
// server's own EWMA speed estimate mu_hat scaling the drain horizon, and
// progress messages re-keying queued operations when siblings complete. An
// aging bound serves the globally oldest operation unconditionally once its
// wait exceeds max_wait, preventing starvation of wide requests.
//
// Each mechanism switches off independently for the ablation study, and the
// primary key can be switched to the request's critical-path remaining time
// (max instead of sum) to quantify why total remaining is the right notion.
// With deferral and aging both off, what is left is request-level SRPT on the
// total remaining demand: that configuration is the `req-srpt` baseline, the
// strongest request-aware non-DAS policy (it cannot tell whether the
// remaining work is parallel or serial), and name() reports it as such.
//
// Storage is built for the progress channel, which re-ranks queued ops at
// several times the op rate: records live in a dense slab recycled through a
// free list, the runnable and deferred sets are indexed min-heaps over slab
// slots (sched/order_heap.hpp) ordered by (key, arrival number), and each
// request's queued ops form an intrusive list through the slab. A re-rank
// that keeps an op in its set is one sift where the op sits. Once the
// structures have grown to their high-water marks, enqueue, dequeue and
// re-rank allocate nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "sched/order_heap.hpp"
#include "sched/scheduler_base.hpp"

namespace das::sched {

class DasScheduler final : public SchedulerBase {
 public:
  /// What "remaining processing time" means for the SRPT-first ordering.
  enum class PrimaryKey {
    /// Total remaining service demand of the request (the paper's notion;
    /// matches concurrent-open-shop theory for the sum objective).
    kTotalRemaining,
    /// Critical-path remaining time (max per-server remaining); an ablation
    /// that quantifies why the total is the right notion.
    kCriticalPath,
  };

  struct Options {
    /// Track the server's speed estimate; false freezes mu_hat at its
    /// initial value (the DAS-NA ablation's server half).
    bool adaptive = true;
    /// Enable the LRPT-last deferred set; false = pure SRPT-first
    /// (the DAS-ND ablation; `req-srpt` when aging is off too).
    bool defer = true;
    /// Starvation bound; infinity disables aging.
    Duration max_wait_us = 50.0 * kMillisecond;
    /// Margin multiplier on the safe-deferral test; > 1 defers less.
    double defer_margin = 2.0;
    PrimaryKey primary_key = PrimaryKey::kTotalRemaining;
  };

  explicit DasScheduler(Options options);

  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  std::vector<OpContext> drain(SimTime now) override;
  void on_request_progress(RequestId request, const ProgressUpdate& update,
                           SimTime now) override;
  void on_speed_estimate(double speed) override;
  /// Oracle-mode preemption on the primary key (only used when the server
  /// runs preemptively; the paper's DAS is non-preemptive).
  bool preempts(const OpContext& incoming, const OpContext& in_service) const override;
  std::string name() const override;

  /// Introspection for tests and the overhead bench.
  std::size_t deferred_count() const { return deferred_.size(); }
  std::size_t active_count() const { return active_.size(); }
  double speed_estimate() const { return mu_hat_; }
  std::uint64_t total_deferrals() const { return total_deferrals_; }
  std::uint64_t aging_promotions() const { return aging_promotions_; }

  MechanismCounters mechanism_counters() const override {
    return {total_deferrals_, resumes_, aging_promotions_, reranks_};
  }
  std::size_t deferred_size() const override { return deferred_.size(); }

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;

  /// Index of a record in the slab.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xFFFFFFFFu;
  /// Serial of a slab record that is on the free list.
  static constexpr std::uint64_t kFreeSerial = ~std::uint64_t{0};

  struct Record {
    OpContext op;
    /// Arrival number: the tie-break of both orders and the aging fifo's
    /// staleness test. kFreeSerial while the slot is free.
    std::uint64_t serial = kFreeSerial;
    bool in_deferred = false;
    /// When the current deferral episode began (valid while in_deferred).
    SimTime defer_started = 0;
    /// Neighbours in the request's list of queued ops (arrival order).
    Slot prev_sibling = kNoSlot;
    Slot next_sibling = kNoSlot;
  };

  /// A request's queued ops, threaded through Record::prev/next_sibling.
  struct SiblingList {
    Slot head = kNoSlot;
    Slot tail = kNoSlot;
  };

  /// Aging fifo entry; stale once the slot's serial moved on.
  struct FifoEntry {
    Slot slot;
    std::uint64_t serial;
  };

  /// Estimated time to drain the entire current backlog at current speed.
  Duration drain_time_us() const;
  double active_key(const OpContext& op) const;
  bool safe_to_defer(SimTime est_other_completion, SimTime now) const;
  std::size_t live_records() const { return slab_.size() - free_slots_.size(); }
  bool fifo_live(const FifoEntry& f) const { return slab_[f.slot].serial == f.serial; }
  /// Opens a deferral episode of a record just put in the deferred set:
  /// counts, stamps and traces it.
  void begin_deferral(Record& rec, SimTime now);
  void place(Slot slot, Record& rec, SimTime now);
  void unlink(Slot slot, Record& rec, SimTime now);
  OpContext finish(Slot slot, SimTime now);
  void migrate_due(SimTime now);

  Options options_;
  double mu_hat_ = 1.0;

  std::vector<Record> slab_;
  std::vector<Slot> free_slots_;
  /// Per slot: the record's index in whichever order heap holds it.
  std::vector<std::uint32_t> heap_pos_;
  OrderHeap active_;    // runnable, SRPT-first by the active key
  OrderHeap deferred_;  // safely deferrable, by deferral expiry
  std::deque<FifoEntry> fifo_;  // arrival order, for aging
  /// Queued ops per request, in arrival order. Progress fan-in walks this;
  /// re-keying one op never disturbs another's membership.
  FlatMap<RequestId, SiblingList> by_request_;
  std::uint64_t next_serial_ = 0;
  std::uint64_t total_deferrals_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t aging_promotions_ = 0;
  std::uint64_t reranks_ = 0;
};

}  // namespace das::sched
