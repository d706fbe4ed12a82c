#include "sched/rein.hpp"

#include <cmath>
#include <utility>

#include "trace/tracer.hpp"

namespace das::sched {

ReinSbfScheduler::ReinSbfScheduler(Options options) : options_(options) {
  DAS_CHECK(options_.levels >= 2);
  DAS_CHECK(options_.threshold_alpha > 0 && options_.threshold_alpha <= 1);
  DAS_CHECK(options_.max_wait_us > 0);
  levels_.resize(options_.levels);
}

void ReinSbfScheduler::check_policy_invariants() const {
  std::size_t queued = 0;
  for (const auto& level : levels_) {
    queued += level.size();
    // Arrival order inside every level is what makes the globally oldest op
    // a level front, which the aging check relies on.
    std::uint64_t next_min = 0;
    for (const Queued& q : level) {
      DAS_AUDIT(q.arrival_seq >= next_min, "Rein level out of arrival order");
      DAS_AUDIT(q.arrival_seq < next_arrival_seq_, "Rein arrival from the future");
      DAS_AUDIT(q.op.demand_us >= 0, "queued op with negative demand");
      next_min = q.arrival_seq + 1;
    }
  }
  DAS_AUDIT(queued == size(), "Rein level sizes drifted from accounting");
  DAS_AUDIT(ewma_bottleneck_ >= 0, "negative bottleneck threshold");
  DAS_AUDIT(seeded_ || size() == 0 || enqueued_total() == 0,
            "threshold never seeded despite arrivals");
}

std::size_t ReinSbfScheduler::level_for(double v) const {
  if (!seeded_ || ewma_bottleneck_ <= 0) return 0;
  // Geometric bands around the running mean: level 0 below the mean, then
  // one level per doubling. Matches Rein's "small multigets go first" split
  // for levels == 2 and generalises smoothly.
  if (v <= ewma_bottleneck_) return 0;
  const double ratio = v / ewma_bottleneck_;
  const auto level = static_cast<std::size_t>(1 + std::floor(std::log2(ratio)));
  return std::min(level, options_.levels - 1);
}

void ReinSbfScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);

  const double v = options_.use_bytes ? copy.bottleneck_demand_us
                                      : static_cast<double>(copy.bottleneck_ops);
  // Threshold adaptation sees every arrival, including ones routed to level 0.
  if (!seeded_) {
    ewma_bottleneck_ = v;
    seeded_ = true;
  } else {
    ewma_bottleneck_ += options_.threshold_alpha * (v - ewma_bottleneck_);
  }

  levels_[level_for(v)].push_back({next_arrival_seq_++, std::move(copy)});
}

OpContext ReinSbfScheduler::take(std::size_t level) {
  OpContext op = std::move(levels_[level].front().op);
  levels_[level].pop_front();
  note_out(op);
  return op;
}

OpContext ReinSbfScheduler::dequeue(SimTime now) {
  // Aging: the globally oldest queued op — the level front with the smallest
  // arrival sequence — is promoted past all levels once its wait exceeds the
  // bound. Otherwise the first non-empty level serves its front.
  std::size_t first = levels_.size();
  std::size_t oldest = levels_.size();
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].empty()) continue;
    if (first == levels_.size()) first = level;
    if (oldest == levels_.size() ||
        levels_[level].front().arrival_seq < levels_[oldest].front().arrival_seq)
      oldest = level;
  }
  DAS_CHECK_MSG(first < levels_.size(), "dequeue on empty ReinSbfScheduler");
  const OpContext& head = levels_[oldest].front().op;
  if (now - head.enqueued_at > options_.max_wait_us) {
    ++aging_promotions_;
    if (tracer_ != nullptr) {
      tracer_->aging_promotion(now, head.op_id, head.request_id, tracer_server_,
                               now - head.enqueued_at);
    }
    return take(oldest);
  }
  return take(first);
}

std::vector<OpContext> ReinSbfScheduler::drain(SimTime) {
  std::vector<OpContext> out;
  out.reserve(size());
  // Level order, FCFS inside a level — the no-aging serve order.
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    while (!levels_[level].empty()) out.push_back(take(level));
  }
  return out;
}

}  // namespace das::sched
