#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace das::sim {

void Simulator::compact() {
  std::erase_if(queue_, [this](const HeapEntry& e) { return !entry_live(e); });
  // Rebuilding cannot reorder dispatch: (t, seq) is a total order, so the
  // relative order of the surviving nodes is heap-shape-independent.
  std::make_heap(queue_.begin(), queue_.end());
  ++compactions_;
}

void Simulator::grow_lane() {
  std::vector<HeapEntry> grown(std::max<std::size_t>(64, 2 * lane_.size()));
  for (std::size_t i = 0; i < lane_size_; ++i)
    grown[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
  lane_.swap(grown);
  lane_head_ = 0;
}

bool Simulator::pop_next(SimTime horizon, SimTime& t_out, EventFn& fn) {
  // The heap top wins unless the lane front precedes it. Written as the
  // heap-only loop plus one compare, so runs without lane events pay nothing
  // for the lane.
  while (!queue_.empty()) {
    if (!entry_live(queue_.front())) {  // cancelled: drop the dead node
      std::pop_heap(queue_.begin(), queue_.end());
      queue_.pop_back();
      continue;
    }
    if (lane_size_ != 0 && precedes(lane_[lane_head_], queue_.front())) break;
    // Peek before popping: a beyond-horizon event stays exactly where it is,
    // so run_until never disturbs the queue it leaves behind.
    if (queue_.front().t > horizon) return false;
    std::pop_heap(queue_.begin(), queue_.end());
    const HeapEntry e = queue_.back();
    queue_.pop_back();
    --heap_live_;
    take(e, t_out, fn);
    // Popping a live node can tip the dead fraction past the threshold.
    maybe_compact();
    return true;
  }
  if (lane_size_ == 0) return false;
  const HeapEntry e = lane_[lane_head_];
  if (e.t > horizon) return false;
  lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
  --lane_size_;
  ++lane_dispatched_;
  take(e, t_out, fn);
  return true;
}

bool Simulator::step() {
  SimTime t = 0;
  EventFn fn;
  if (!pop_next(kTimeInfinity, t, fn)) return false;
  DAS_CHECK(t >= now_);
  now_ = t;
  ++dispatched_;
  fn();
  maybe_audit();
  return true;
}

void Simulator::add_auditable(const Auditable* auditable) {
  DAS_CHECK(auditable != nullptr);
  auditables_.push_back(auditable);
}

void Simulator::check_invariants() const {
  DAS_AUDIT(std::is_heap(queue_.begin(), queue_.end()),
            "event queue lost the heap property");
  // Each occupied slot must be named by exactly one live heap or lane entry.
  std::vector<std::uint8_t> seen(slots_.size(), 0);
  const auto claim = [&](const HeapEntry& e) {
    DAS_AUDIT(!seen[e.slot], "two live events share a slot");
    seen[e.slot] = 1;
    // Time monotonicity: dispatching any live event may never move the
    // clock backwards.
    DAS_AUDIT(e.t >= now_, "live event scheduled in the past");
    DAS_AUDIT(slots_[e.slot].fn != nullptr, "live event without a callback");
  };
  std::size_t heap_live = 0;
  for (const HeapEntry& e : queue_) {
    DAS_AUDIT(e.slot < slots_.size(), "heap entry names a slot out of range");
    DAS_AUDIT(e.seq != 0 && e.seq < next_seq_, "event sequence out of range");
    if (!entry_live(e)) continue;
    ++heap_live;
    claim(e);
  }
  DAS_AUDIT(heap_live == heap_live_, "live-event count out of sync with the heap");
  // The lane: every entry live, sorted by (t, seq), none past the last
  // appended time.
  DAS_AUDIT(lane_size_ <= lane_.size(), "lane holds more entries than its ring");
  DAS_AUDIT((lane_.size() & (lane_.size() - 1)) == 0,
            "lane ring size is not a power of two");
  const HeapEntry* prev = nullptr;
  for (std::size_t i = 0; i < lane_size_; ++i) {
    const HeapEntry& e = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    DAS_AUDIT(e.slot < slots_.size(), "lane entry names a slot out of range");
    DAS_AUDIT(e.seq != 0 && e.seq < next_seq_, "event sequence out of range");
    DAS_AUDIT(entry_live(e), "dead entry on the FIFO lane");
    DAS_AUDIT(prev == nullptr || precedes(*prev, e), "FIFO lane out of order");
    DAS_AUDIT(e.t <= lane_last_t_, "lane entry beyond the last lane time");
    claim(e);
    prev = &e;
  }
  // Slab accounting: occupied slots are exactly the live events, and the
  // free list threads through every other slot exactly once.
  std::size_t occupied = 0;
  for (const Slot& s : slots_) {
    if (s.seq != 0) ++occupied;
  }
  DAS_AUDIT(occupied == pending(), "slab occupancy out of sync with live events");
  std::size_t free_count = 0;
  for (std::uint32_t s = free_head_; s != kNoSlot; s = slots_[s].next_free) {
    DAS_AUDIT(s < slots_.size(), "free list points out of the slab");
    DAS_AUDIT(slots_[s].seq == 0, "occupied slot on the free list");
    ++free_count;
    DAS_AUDIT(free_count <= slots_.size(), "free list cycle");
  }
  DAS_AUDIT(occupied + free_count == slots_.size(),
            "slab slots neither occupied nor free");
  // Compaction runs after every cancel and heap pop, so dead nodes may
  // exceed live ones only while the heap sits under the compaction floor.
  if (compaction_enabled_) {
    const std::size_t dead = queue_.size() - heap_live;
    DAS_AUDIT(queue_.size() < kCompactionFloor || dead <= heap_live,
              "dead heap nodes outnumber live ones despite compaction");
  }
}

void Simulator::audit_now() const {
  ++audits_run_;
  check_invariants();
  for (const Auditable* auditable : auditables_) {
    auditable->check_invariants();
  }
}

void Simulator::maybe_audit() const {
  if (audit_cadence_ != 0 && dispatched_ % audit_cadence_ == 0) audit_now();
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime t) {
  DAS_CHECK(t >= now_);
  SimTime event_t = 0;
  EventFn fn;
  while (pop_next(t, event_t, fn)) {
    now_ = event_t;
    ++dispatched_;
    fn();
    maybe_audit();
  }
  now_ = t;
}

PeriodicProcess::PeriodicProcess(Simulator& sim, Duration period, EventFn fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  DAS_CHECK(period_ > 0);
  DAS_CHECK(fn_ != nullptr);
}

PeriodicProcess::~PeriodicProcess() { stop(); }

void PeriodicProcess::start() {
  if (running_) return;
  running_ = true;
  pending_ = sim_.schedule_after(period_, [this] { fire(); });
}

void PeriodicProcess::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventHandle{};
}

void PeriodicProcess::fire() {
  pending_ = EventHandle{};
  fn_();
  // The callback may have called stop() + start(), in which case start()
  // already scheduled the next occurrence; rescheduling here as well would
  // fork a second, orphaned event chain firing at twice the period.
  if (running_ && !pending_.valid())
    pending_ = sim_.schedule_after(period_, [this] { fire(); });
}

}  // namespace das::sim
