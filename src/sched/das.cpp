#include "sched/das.hpp"

#include <cmath>

#include "trace/tracer.hpp"

namespace das::sched {

DasScheduler::DasScheduler(Options options) : options_(options) {
  DAS_CHECK(options_.max_wait_us > 0);
  DAS_CHECK(options_.defer_margin > 0);
}

void DasScheduler::check_policy_invariants() const {
  DAS_AUDIT(mu_hat_ > 0, "nonpositive speed estimate");
  const std::size_t live = live_records();
  DAS_AUDIT(live == size(), "DAS record count drifted from accounting");
  DAS_AUDIT(active_.size() + deferred_.size() == live,
            "DAS order sets do not partition the records");
  DAS_AUDIT(active_.is_heap() && deferred_.is_heap(),
            "DAS order heap lost the heap property");
  DAS_AUDIT(heap_pos_.size() == slab_.size(), "order-heap position index size");
  // Each heap entry names a live record of its own set at the position the
  // index holds for it; with the sizes above, the two heaps therefore
  // partition the live records.
  for (const bool deferred : {false, true}) {
    const OrderHeap& heap = deferred ? deferred_ : active_;
    for (std::size_t i = 0; i < heap.size(); ++i) {
      const OrderHeap::Entry& entry = heap.entries()[i];
      DAS_AUDIT(entry.slot < slab_.size() && slab_[entry.slot].serial == entry.serial,
                "order entry without a record");
      const Record& rec = slab_[entry.slot];
      DAS_AUDIT(rec.in_deferred == deferred,
                "record linked in the wrong order set");
      DAS_AUDIT(heap_pos_[entry.slot] == i, "order-heap position index out of sync");
      if (deferred) {
        DAS_AUDIT(entry.key == rec.op.est_other_completion,
                  "stale deferral expiry key");
      } else {
        DAS_AUDIT(entry.key == active_key(rec.op), "stale active ordering key");
      }
    }
  }
  // Slab accounting: the free list names every free slot exactly once.
  std::vector<char> on_free_list(slab_.size(), 0);
  for (const Slot slot : free_slots_) {
    DAS_AUDIT(slot < slab_.size(), "free slot out of the slab");
    DAS_AUDIT(slab_[slot].serial == kFreeSerial, "live record on the free list");
    DAS_AUDIT(!on_free_list[slot], "slot freed twice");
    on_free_list[slot] = 1;
  }
  std::size_t request_handles = 0;
  for (const auto& [request, list] : by_request_) {
    DAS_AUDIT(list.head != kNoSlot, "empty per-request list not pruned");
    Slot prev = kNoSlot;
    for (Slot slot = list.head; slot != kNoSlot; slot = slab_[slot].next_sibling) {
      DAS_AUDIT(slot < slab_.size() && slab_[slot].serial != kFreeSerial,
                "per-request index holds a served op");
      DAS_AUDIT(slab_[slot].prev_sibling == prev, "per-request list links broken");
      DAS_AUDIT(slab_[slot].op.request_id == request,
                "per-request index points at the wrong request");
      DAS_AUDIT(++request_handles <= live, "per-request list cycle");
      prev = slot;
    }
    DAS_AUDIT(list.tail == prev, "per-request list tail out of sync");
  }
  DAS_AUDIT(request_handles == live,
            "per-request index does not partition the records");
  for (const Record& rec : slab_) {
    if (rec.serial == kFreeSerial) continue;
    DAS_AUDIT(rec.serial < next_serial_, "record serial from the future");
    DAS_AUDIT(rec.op.demand_us >= 0, "queued op with negative demand");
    DAS_AUDIT(rec.op.remaining_critical_us >= 0,
              "negative critical-path remaining time");
    DAS_AUDIT(rec.op.total_demand_us >= 0, "negative total remaining demand");
  }
  // Aging must be able to reach every queued op: each record appears in the
  // fifo exactly once (stale entries for served ops are skipped lazily).
  std::size_t fifo_live_count = 0;
  for (const FifoEntry& f : fifo_) {
    DAS_AUDIT(f.slot < slab_.size(), "aging fifo entry out of the slab");
    if (fifo_live(f)) ++fifo_live_count;
  }
  DAS_AUDIT(fifo_live_count == live, "aging fifo lost track of queued ops");
}

std::string DasScheduler::name() const {
  if (options_.primary_key == PrimaryKey::kCriticalPath) return "das-crit";
  if (!options_.adaptive) return "das-na";
  if (!options_.defer) {
    return options_.max_wait_us == kTimeInfinity ? "req-srpt" : "das-nd";
  }
  if (options_.max_wait_us == kTimeInfinity) return "das-noaging";
  return "das";
}

void DasScheduler::on_speed_estimate(double speed) {
  if (!options_.adaptive) return;
  DAS_CHECK(speed > 0);
  mu_hat_ = speed;
}

Duration DasScheduler::drain_time_us() const {
  return backlog_demand_us() / mu_hat_;
}

bool DasScheduler::safe_to_defer(SimTime est_other_completion, SimTime now) const {
  if (!options_.defer) return false;
  if (est_other_completion <= 0) return false;  // no siblings elsewhere
  // Even if served after everything currently queued, the op would complete
  // around now + drain_time; if the request cannot finish before
  // est_other_completion anyway, deferring costs its RCT nothing.
  return est_other_completion - now > drain_time_us() * options_.defer_margin;
}

bool DasScheduler::preempts(const OpContext& incoming,
                            const OpContext& in_service) const {
  return active_key(incoming) < active_key(in_service);
}

double DasScheduler::active_key(const OpContext& op) const {
  return options_.primary_key == PrimaryKey::kTotalRemaining
             ? op.total_demand_us
             : op.remaining_critical_us;
}

void DasScheduler::begin_deferral(Record& rec, SimTime now) {
  ++total_deferrals_;
  rec.defer_started = now;
  if (tracer_ != nullptr) {
    tracer_->op_defer(now, rec.op.op_id, rec.op.request_id, tracer_server_,
                      rec.op.est_other_completion);
  }
}

void DasScheduler::place(Slot slot, Record& rec, SimTime now) {
  rec.in_deferred = safe_to_defer(rec.op.est_other_completion, now);
  if (rec.in_deferred) {
    deferred_.push({rec.op.est_other_completion, rec.serial, slot}, heap_pos_);
    begin_deferral(rec, now);
  } else {
    active_.push({active_key(rec.op), rec.serial, slot}, heap_pos_);
  }
}

void DasScheduler::unlink(Slot slot, Record& rec, SimTime now) {
  OrderHeap& heap = rec.in_deferred ? deferred_ : active_;
  const std::uint32_t pos = heap_pos_[slot];
  DAS_CHECK_MSG(pos < heap.size() && heap.entries()[pos].slot == slot,
                "DAS order-set desync");
  heap.erase(pos, heap_pos_);
  if (rec.in_deferred) {
    rec.op.deferred_wait_us += now - rec.defer_started;
    rec.in_deferred = false;
  }
}

void DasScheduler::enqueue(const OpContext& op, SimTime now) {
  Slot slot;
  if (free_slots_.empty()) {
    DAS_CHECK_MSG(slab_.size() < kNoSlot, "DAS record slab exhausted");
    slot = static_cast<Slot>(slab_.size());
    slab_.emplace_back();
    heap_pos_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Record& rec = slab_[slot];
  rec.op = op;
  rec.op.enqueued_at = now;
  rec.serial = next_serial_++;
  note_in(rec.op);
  place(slot, rec, now);
  fifo_.push_back({slot, rec.serial});
  SiblingList& siblings = by_request_[op.request_id];
  rec.prev_sibling = siblings.tail;
  rec.next_sibling = kNoSlot;
  if (siblings.tail == kNoSlot) {
    siblings.head = slot;
  } else {
    slab_[siblings.tail].next_sibling = slot;
  }
  siblings.tail = slot;
}

OpContext DasScheduler::finish(Slot slot, SimTime now) {
  DAS_CHECK(slot < slab_.size() && slab_[slot].serial != kFreeSerial);
  Record& rec = slab_[slot];
  unlink(slot, rec, now);
  const auto siblings = by_request_.find(rec.op.request_id);
  DAS_CHECK(siblings != by_request_.end());
  SiblingList& list = siblings->second;
  if (rec.prev_sibling == kNoSlot) {
    list.head = rec.next_sibling;
  } else {
    slab_[rec.prev_sibling].next_sibling = rec.next_sibling;
  }
  if (rec.next_sibling == kNoSlot) {
    list.tail = rec.prev_sibling;
  } else {
    slab_[rec.next_sibling].prev_sibling = rec.prev_sibling;
  }
  if (list.head == kNoSlot) by_request_.erase(siblings);
  OpContext op = std::move(rec.op);
  rec.serial = kFreeSerial;
  free_slots_.push_back(slot);
  note_out(op);
  return op;
}

void DasScheduler::migrate_due(SimTime now) {
  // The deferred set is ordered by deferral expiry (est_other_completion):
  // its minimum is the least-safe element. While that element's window has
  // closed — time passed, or the backlog shrank — it re-enters the runnable
  // set; once the minimum is safe, all later ones are too.
  while (!deferred_.empty()) {
    const OrderHeap::Entry front = deferred_.top();
    if (safe_to_defer(front.key, now)) break;
    deferred_.erase(0, heap_pos_);
    Record& rec = slab_[front.slot];
    rec.op.deferred_wait_us += now - rec.defer_started;
    rec.in_deferred = false;
    ++resumes_;
    active_.push({active_key(rec.op), rec.serial, front.slot}, heap_pos_);
    if (tracer_ != nullptr)
      tracer_->op_resume(now, rec.op.op_id, rec.op.request_id, tracer_server_);
  }
}

OpContext DasScheduler::dequeue(SimTime now) {
  DAS_CHECK(!empty());
  // 1. Aging: the oldest op is served unconditionally past its wait bound.
  if (options_.max_wait_us != kTimeInfinity) {
    while (!fifo_.empty() && !fifo_live(fifo_.front())) fifo_.pop_front();
    if (!fifo_.empty()) {
      const Slot slot = fifo_.front().slot;
      const Record& oldest = slab_[slot];
      if (now - oldest.op.enqueued_at > options_.max_wait_us) {
        fifo_.pop_front();
        ++aging_promotions_;
        if (tracer_ != nullptr) {
          tracer_->aging_promotion(now, oldest.op.op_id, oldest.op.request_id,
                                   tracer_server_, now - oldest.op.enqueued_at);
        }
        return finish(slot, now);
      }
    }
  }
  // 2. Wake deferred ops whose safety window closed.
  migrate_due(now);
  // 3. SRPT-first on the runnable set; fall back to the deferred set so the
  // server never idles with work queued (work conservation).
  if (!active_.empty()) return finish(active_.top().slot, now);
  DAS_CHECK(!deferred_.empty());
  return finish(deferred_.top().slot, now);
}

std::vector<OpContext> DasScheduler::drain(SimTime now) {
  std::vector<OpContext> out;
  out.reserve(live_records());
  // Walk the arrival fifo skipping stale entries; the fifo invariantly
  // covers every live record, so this empties the slab, both order sets,
  // and the per-request index through the normal finish path.
  while (!fifo_.empty()) {
    const FifoEntry f = fifo_.front();
    fifo_.pop_front();
    if (!fifo_live(f)) continue;
    out.push_back(finish(f.slot, now));
  }
  DAS_CHECK_MSG(live_records() == 0, "drain left DAS records behind");
  return out;
}

void DasScheduler::on_request_progress(RequestId request, const ProgressUpdate& update,
                                       SimTime now) {
  const auto it = by_request_.find(request);
  if (it == by_request_.end()) return;
  // Every queued op of the request takes the same new tags, so whether it may
  // be deferred is one decision for all of them (re-keying does not change
  // the backlog the test reads).
  const bool defer = safe_to_defer(update.est_other_completion, now);
  // Re-key every queued op of the request and re-evaluate its deferral.
  for (Slot slot = it->second.head; slot != kNoSlot;
       slot = slab_[slot].next_sibling) {
    Record& rec = slab_[slot];
    if (rec.op.remaining_critical_us == update.remaining_critical_us &&
        rec.op.est_other_completion == update.est_other_completion &&
        rec.op.total_demand_us == update.remaining_total_us) {
      continue;
    }
    const double old_key = active_key(rec.op);
    // An op that stays in its set is re-keyed where it sits (one sift); one
    // that crosses between the runnable and deferred sets goes through
    // unlink + place. A deferred op that stays deferred still closes its
    // deferral episode and opens a new one, exactly as unlink + place would.
    const bool crosses = rec.in_deferred != defer;
    if (crosses) unlink(slot, rec, now);
    rec.op.remaining_critical_us = update.remaining_critical_us;
    rec.op.est_other_completion = update.est_other_completion;
    rec.op.total_demand_us = update.remaining_total_us;
    if (crosses) {
      place(slot, rec, now);
    } else if (defer) {
      rec.op.deferred_wait_us += now - rec.defer_started;
      deferred_.update(heap_pos_[slot], rec.op.est_other_completion, heap_pos_);
      begin_deferral(rec, now);
    } else {
      active_.update(heap_pos_[slot], active_key(rec.op), heap_pos_);
    }
    ++reranks_;
    if (tracer_ != nullptr) {
      tracer_->op_rerank(now, rec.op.op_id, rec.op.request_id, tracer_server_,
                         old_key, active_key(rec.op));
    }
  }
}

}  // namespace das::sched
