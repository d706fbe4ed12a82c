#include "sched/basic_policies.hpp"

#include <algorithm>
#include <utility>

namespace das::sched {

void FcfsScheduler::check_policy_invariants() const {
  DAS_AUDIT(queue_.size() == size(), "FCFS queue size drifted from accounting");
  SimTime prev = 0;
  for (const OpContext& op : queue_) {
    DAS_AUDIT(op.demand_us >= 0, "queued op with negative demand");
    DAS_AUDIT(op.enqueued_at >= prev, "FCFS queue out of arrival order");
    prev = op.enqueued_at;
  }
}

void RandomScheduler::check_policy_invariants() const {
  DAS_AUDIT(queue_.size() == size(), "Random queue size drifted from accounting");
  for (const OpContext& op : queue_) {
    DAS_AUDIT(op.demand_us >= 0, "queued op with negative demand");
  }
}

void FrozenKeyScheduler::check_policy_invariants() const {
  DAS_AUDIT(heap_.size() == size(), name_ + " queue size drifted from accounting");
  DAS_AUDIT(std::is_heap(heap_.begin(), heap_.end(), later),
            name_ + " queue lost the heap order");
  for (const Entry& entry : heap_) {
    DAS_AUDIT(entry.op.demand_us >= 0, "queued op with negative demand");
    DAS_AUDIT(entry.key == entry.op.*key_, name_ + " key drifted from its op");
    DAS_AUDIT(entry.arrival < next_arrival_, name_ + " arrival number from the future");
  }
}

void FcfsScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);
  queue_.push_back(std::move(copy));
}

OpContext FcfsScheduler::dequeue(SimTime) {
  DAS_CHECK(!queue_.empty());
  OpContext op = std::move(queue_.front());
  queue_.pop_front();
  note_out(op);
  return op;
}

std::vector<OpContext> FcfsScheduler::drain(SimTime) {
  std::vector<OpContext> out;
  out.reserve(queue_.size());
  while (!queue_.empty()) {
    OpContext op = std::move(queue_.front());
    queue_.pop_front();
    note_out(op);
    out.push_back(std::move(op));
  }
  return out;
}

void RandomScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);
  queue_.push_back(std::move(copy));
}

OpContext RandomScheduler::dequeue(SimTime) {
  DAS_CHECK(!queue_.empty());
  const std::size_t idx =
      static_cast<std::size_t>(rng_.next_below(queue_.size()));
  std::swap(queue_[idx], queue_.back());
  OpContext op = std::move(queue_.back());
  queue_.pop_back();
  note_out(op);
  return op;
}

std::vector<OpContext> RandomScheduler::drain(SimTime) {
  std::vector<OpContext> out;
  out.reserve(queue_.size());
  for (OpContext& op : queue_) {
    note_out(op);
    out.push_back(std::move(op));
  }
  queue_.clear();
  return out;
}

FrozenKeyScheduler::FrozenKeyScheduler(double OpContext::*key, std::string name)
    : key_(key), name_(std::move(name)) {}

void FrozenKeyScheduler::enqueue(const OpContext& op, SimTime now) {
  Entry entry{op.*key_, next_arrival_++, op};
  entry.op.enqueued_at = now;
  note_in(entry.op);
  heap_.push_back(std::move(entry));
  std::push_heap(heap_.begin(), heap_.end(), later);
}

OpContext FrozenKeyScheduler::dequeue(SimTime) {
  DAS_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), later);
  OpContext op = std::move(heap_.back().op);
  heap_.pop_back();
  note_out(op);
  return op;
}

std::vector<OpContext> FrozenKeyScheduler::drain(SimTime now) {
  std::vector<OpContext> out;
  out.reserve(heap_.size());
  while (!heap_.empty()) out.push_back(dequeue(now));
  return out;
}

}  // namespace das::sched
