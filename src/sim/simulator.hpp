// Discrete-event simulation engine.
//
// A Simulator owns a time-ordered event queue. Events at equal timestamps
// dispatch in scheduling order (a monotone sequence number breaks ties), so
// runs are fully deterministic. Cancellation is lazy: cancelled events stay
// in the heap and are skipped at pop time, which keeps schedule/cancel O(log n)
// without an indexed heap. When dead (cancelled-but-still-queued) nodes come
// to outnumber live ones the heap is compacted — rebuilt from the live nodes
// only — so workloads that cancel almost every timer they set (hedging,
// retransmission) keep the queue proportional to the live event count.
// Compaction preserves the (t, seq) dispatch order exactly.
//
// Beside the heap sits one FIFO lane: a ring buffer for producers whose event
// times never decrease in scheduling order — a constant-latency network's
// deliveries, one event per response and one per client fan-out (all ops of
// a request, or all updates of one progress round). A lane event costs an
// O(1) append and an O(1) pop instead of two O(log n) sifts. Lane and heap entries
// share one sequence counter, and each dispatch takes whichever of the lane
// front and the heap top is smaller by (t, seq), so the lane changes nothing
// about the dispatch order. Lane events cannot be cancelled.
//
// Storage is split for throughput: heap and lane hold 24-byte POD entries
// {t, seq, slot} (sift operations are raw copies, no callable moves), and
// callbacks live in a slab of pooled slots recycled through a free list — no
// per-event allocation once the slab has grown to the high-water mark. A
// slot's current sequence number doubles as the liveness test: an EventHandle
// (and a heap entry) names {slot, seq}, and cancel/fire bumps the slot's seq
// to 0, so stale handles and dead heap entries are recognized by a single
// integer compare instead of a hash-set lookup per event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/invariant.hpp"
#include "common/small_fn.hpp"
#include "common/types.hpp"

namespace das::sim {

/// Event callback. The inline capacity holds every hot-path closure with room
/// to spare (the largest is the cluster's response delivery, an OpResponse
/// plus a pointer); anything bigger falls back to the heap rather than
/// failing to compile.
using EventFn = SmallFn<192>;

/// Opaque ticket for a scheduled event; valid until the event fires or is
/// cancelled. Default-constructed handles refer to no event.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;  // 0 = no event (sequence numbers start at 1)
};

class Simulator : public Auditable {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now()). The EventFn overload
  /// serves pre-built callbacks (and rejects null ones); the template
  /// overload constructs a plain closure directly in its pooled slot, so the
  /// capture moves exactly once, call site -> slab.
  EventHandle schedule_at(SimTime t, EventFn fn) {
    DAS_CHECK(fn != nullptr);
    return schedule_impl(t, std::move(fn));
  }
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                            std::is_invocable_v<std::remove_cvref_t<F>&>>>
  EventHandle schedule_at(SimTime t, F&& fn) {
    return schedule_impl(t, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  EventHandle schedule_after(Duration delay, EventFn fn) {
    DAS_CHECK(fn != nullptr);
    DAS_CHECK_MSG(delay >= 0, "delay must be non-negative");
    return schedule_impl(now_ + delay, std::move(fn));
  }
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                            std::is_invocable_v<std::remove_cvref_t<F>&>>>
  EventHandle schedule_after(Duration delay, F&& fn) {
    DAS_CHECK_MSG(delay >= 0, "delay must be non-negative");
    return schedule_impl(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `t` (>= now()) on the FIFO lane. Lane
  /// times must be non-decreasing in call order; a time below the previous
  /// lane time fails a check. A lane event cannot be cancelled, so no handle
  /// is returned.
  void schedule_fifo(SimTime t, EventFn&& fn) {
    DAS_CHECK(fn != nullptr);
    DAS_CHECK_MSG(t >= lane_last_t_, "FIFO lane time went backwards");
    if (lane_size_ == lane_.size()) grow_lane();
    const std::uint64_t seq = next_seq_;
    const std::uint32_t slot = occupy(t, std::move(fn));
    const std::size_t tail = (lane_head_ + lane_size_) & (lane_.size() - 1);
    lane_[tail] = HeapEntry{t, seq, slot};
    ++lane_size_;
    lane_last_t_ = t;
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled
  /// or invalid handle is a harmless no-op (idempotent). A handle is live iff
  /// its slot still carries the same sequence number; fired and cancelled
  /// events moved the slot on (or freed it), so stale and foreign handles
  /// fail the compare. The heap entry stays behind as a dead node, skipped
  /// lazily at pop time.
  void cancel(EventHandle h) {
    if (!h.valid()) return;
    if (h.slot_ >= slots_.size() || slots_[h.slot_].seq != h.seq_) return;
    release_slot(h.slot_);
    --heap_live_;
    maybe_compact();
  }

  /// Runs until the queue is empty.
  void run();

  /// Runs until simulated time reaches `t` (events with timestamp <= t fire)
  /// or the queue empties. Afterwards now() == t if any horizon was reached.
  void run_until(SimTime t);

  /// Dispatches at most one event; returns false if the queue was empty.
  bool step();

  /// Live events, heap and lane together.
  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return heap_live_ + lane_size_; }
  std::uint64_t events_dispatched() const { return dispatched_; }
  /// Subset of events_dispatched() that came off the FIFO lane.
  std::uint64_t lane_dispatched() const { return lane_dispatched_; }

  /// --- lazy-cancel heap compaction ------------------------------------------
  /// Heap nodes including dead (cancelled, not yet reclaimed) ones; lane
  /// events are not heap nodes. The gap versus the heap's live events is
  /// what compaction bounds.
  std::size_t queued_nodes() const { return queue_.size(); }
  /// Live events in the heap (pending() minus the lane).
  std::size_t heap_pending() const { return heap_live_; }
  /// Times the heap has been rebuilt from its live nodes.
  std::uint64_t compactions() const { return compactions_; }
  /// Disabling compaction restores pure lazy cancellation (tests use this to
  /// show compaction is behaviour-preserving). Dispatch order is identical
  /// either way.
  void set_compaction_enabled(bool enabled) { compaction_enabled_ = enabled; }
  bool compaction_enabled() const { return compaction_enabled_; }

  /// Pooled callback slots currently allocated (the slab's high-water mark;
  /// introspection for tests — steady-state runs stop growing it).
  std::size_t slab_slots() const { return slots_.size(); }

  /// --- invariant auditing ---------------------------------------------------
  /// Registers a component to audit alongside the simulator itself. The
  /// pointer must outlive the simulator (the cluster owns both). Audits run
  /// every `cadence` dispatched events (set_audit_cadence) and on audit_now().
  void add_auditable(const Auditable* auditable);

  /// Audit every `every_n_events` dispatched events; 0 disables (default).
  /// Event timestamps are checked between dispatches, so the cadence also
  /// verifies time monotonicity continuously.
  void set_audit_cadence(std::uint64_t every_n_events) { audit_cadence_ = every_n_events; }
  std::uint64_t audit_cadence() const { return audit_cadence_; }
  std::uint64_t audits_run() const { return audits_run_; }

  /// Audits the simulator and every registered component immediately.
  /// Throws AuditError on the first violation.
  void audit_now() const;

  /// Simulator-local invariants: the heap is a heap, the lane is sorted by
  /// (t, seq), no live event is scheduled in the past, heap and lane entries
  /// and slab slots describe the same live set (one entry per occupied
  /// slot), the free list is consistent with it, and (when compaction is
  /// enabled) dead heap nodes never outnumber live ones once the heap is past
  /// the compaction floor.
  void check_invariants() const override;

 private:
  friend struct TestCorruptor;

  /// POD heap and lane node: sift operations copy 24 bytes and never touch
  /// the callback. `seq` snapshots the slot's sequence number at scheduling
  /// time; the entry is dead iff the slot has since moved on.
  struct HeapEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
    // Min-heap by (t, seq): std::push_heap builds a max-heap, so invert.
    bool operator<(const HeapEntry& other) const {
      if (t != other.t) return t > other.t;
      return seq > other.seq;
    }
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One pooled callback. `seq` == 0 marks a free slot (then `next_free`
  /// chains the free list).
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;
    std::uint32_t next_free = kNoSlot;
  };

  bool entry_live(const HeapEntry& e) const { return slots_[e.slot].seq == e.seq; }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    DAS_CHECK_MSG(slots_.size() < kNoSlot, "event slab exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Destroys the slot's callback and returns it to the free list.
  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.fn = nullptr;  // destroy the callback now, releasing its captures
    s.seq = 0;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// Dispatch order: true iff `a` fires before `b`.
  static bool precedes(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  /// Claims the next sequence number and a slot for `fn` at time `t`;
  /// returns the slot. (Returning the whole entry instead measurably slows
  /// the heap path under gcc.)
  template <typename F>
  std::uint32_t occupy(SimTime t, F&& fn) {
    DAS_CHECK_MSG(t >= now_, "cannot schedule into the past");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    try {
      s.fn = std::forward<F>(fn);
    } catch (...) {
      // The callable's own copy/move threw (or its heap fallback failed);
      // the slot is still marked free (seq 0), so just rechain it.
      release_slot(slot);
      throw;
    }
    s.seq = seq;
    return slot;
  }

  template <typename F>
  EventHandle schedule_impl(SimTime t, F&& fn) {
    const std::uint64_t seq = next_seq_;
    const std::uint32_t slot = occupy(t, std::forward<F>(fn));
    queue_.push_back(HeapEntry{t, seq, slot});
    std::push_heap(queue_.begin(), queue_.end());
    ++heap_live_;
    // Growth can carry the queue across the compaction floor with a backlog
    // of dead nodes accumulated while it was too small to bother compacting.
    maybe_compact();
    return EventHandle{slot, seq};
  }

  /// Doubles the lane's ring (power-of-two capacity), unwrapping it.
  void grow_lane();

  /// Hands a popped event's time and callback to the dispatcher. The
  /// callback moves out and the slot is recycled BEFORE it runs: it may
  /// schedule (growing the slab) or cancel, and a handle to this event is
  /// already spent.
  void take(const HeapEntry& e, SimTime& t_out, EventFn& fn) {
    t_out = e.t;
    fn = std::move(slots_[e.slot].fn);
    release_slot(e.slot);
  }

  /// Pops the next live event — the lane front or the heap top, whichever
  /// precedes — with t <= horizon, moving its callback into `fn` and its
  /// timestamp into `t_out`. Dead heap entries encountered on the way are
  /// dropped. Returns false when drained or when the next live event lies
  /// beyond the horizon (which it peeks without disturbing).
  bool pop_next(SimTime horizon, SimTime& t_out, EventFn& fn);

  /// Rebuilds the heap from its live nodes when dead ones outnumber them.
  /// Called after every operation that can raise the dead fraction (cancel
  /// and heap pop), so the dead <= live bound in check_invariants() always
  /// holds. The threshold test is inline (three loads on the hot path); the
  /// rebuild itself is out of line.
  void maybe_compact() {
    if (!compaction_enabled_ || queue_.size() < kCompactionFloor) return;
    if ((queue_.size() - heap_live_) * 2 <= queue_.size()) return;
    compact();
  }
  void compact();

  /// Below this many heap nodes compaction never triggers: rebuilding a tiny
  /// heap saves nothing and the invariant bound would be noisy.
  static constexpr std::size_t kCompactionFloor = 64;

  /// Runs the cadence audit when one is due.
  void maybe_audit() const;

  std::vector<HeapEntry> queue_;
  /// Live (uncancelled) entries of queue_.
  std::size_t heap_live_ = 0;
  /// The FIFO lane: a ring of lane_size_ entries starting at lane_head_, in
  /// a buffer whose size is zero or a power of two. Every entry is live.
  std::vector<HeapEntry> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  SimTime lane_last_t_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  // 0 is the invalid-handle sentinel
  std::uint64_t dispatched_ = 0;
  std::uint64_t lane_dispatched_ = 0;
  std::uint64_t compactions_ = 0;
  bool compaction_enabled_ = true;
  std::vector<const Auditable*> auditables_;
  std::uint64_t audit_cadence_ = 0;
  mutable std::uint64_t audits_run_ = 0;
};

/// Repeats a callback with a fixed period until stopped. The callback runs
/// at start + period, start + 2*period, ...; stop() cancels the pending
/// occurrence and prevents future ones. Safe to stop — and to restart via
/// stop() + start() — from within the callback itself; a restart owns the
/// schedule (exactly one chain of events ever exists).
class PeriodicProcess {
 public:
  PeriodicProcess(Simulator& sim, Duration period, EventFn fn);
  ~PeriodicProcess();
  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

 private:
  void fire();

  Simulator& sim_;
  Duration period_;
  EventFn fn_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace das::sim
