// E12 — Scheduling overhead: per-operation decision cost of each policy as
// a function of queue depth, the cost of a progress update, and the
// per-operation metadata footprint. Supports the paper's claim that DAS's
// distributed coordination is cheap enough for a production datapath.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/wire.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace das;

sched::OpContext make_op(OperationId id, Rng& rng, SimTime now) {
  sched::OpContext op;
  op.op_id = id;
  op.request_id = id / 4;  // a few ops per request
  op.demand_us = rng.uniform(1, 60);
  op.total_demand_us = rng.uniform(10, 400);
  op.remaining_critical_us = rng.uniform(1, 100);
  op.est_other_completion = rng.chance(0.4) ? now + rng.uniform(0, 3000) : 0;
  op.bottleneck_ops = static_cast<std::uint32_t>(1 + rng.next_below(8));
  op.bottleneck_demand_us = rng.uniform(1, 200);
  op.deadline = now + rng.uniform(100, 10000);
  op.request_arrival = now;
  return op;
}

// Steady-state churn: hold the queue at `depth`, measure one
// enqueue+dequeue round trip.
void BM_EnqueueDequeue(benchmark::State& state) {
  const auto policy = static_cast<sched::Policy>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));
  sched::SchedulerPtr s = sched::make_scheduler(policy);
  Rng rng{42};
  SimTime now = 0;
  OperationId id = 0;
  for (std::size_t i = 0; i < depth; ++i) s->enqueue(make_op(id++, rng, now), now);
  for (auto _ : state) {
    now += 1.0;
    s->enqueue(make_op(id++, rng, now), now);
    benchmark::DoNotOptimize(s->dequeue(now));
  }
  state.SetLabel(sched::to_string(policy) + "/depth=" + std::to_string(depth));
}

// Progress-update cost at depth (feedback-driven policies only).
void BM_ProgressUpdate(benchmark::State& state) {
  const auto policy = static_cast<sched::Policy>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));
  sched::SchedulerPtr s = sched::make_scheduler(policy);
  Rng rng{43};
  SimTime now = 0;
  for (OperationId id = 0; id < depth; ++id) s->enqueue(make_op(id, rng, now), now);
  RequestId req = 0;
  for (auto _ : state) {
    now += 1.0;
    sched::ProgressUpdate update;
    update.remaining_critical_us = rng.uniform(1, 100);
    update.est_other_completion = rng.chance(0.5) ? now + rng.uniform(0, 3000) : 0;
    update.remaining_total_us = rng.uniform(10, 400);
    s->on_request_progress(req, update, now);
    req = (req + 1) % (depth / 4 + 1);
  }
  state.SetLabel(sched::to_string(policy) + "/depth=" + std::to_string(depth));
}

void register_benches() {
  const std::vector<sched::Policy> policies = {
      sched::Policy::kFcfs,    sched::Policy::kSjf,
      sched::Policy::kReqSrpt, sched::Policy::kReinSbf,
      sched::Policy::kDas,
  };
  for (const sched::Policy p : policies) {
    for (const std::int64_t depth : {16, 256, 4096}) {
      benchmark::RegisterBenchmark("E12/enqueue_dequeue", BM_EnqueueDequeue)
          ->Args({static_cast<std::int64_t>(p), depth});
    }
  }
  for (const sched::Policy p :
       {sched::Policy::kReqSrpt, sched::Policy::kDas}) {
    for (const std::int64_t depth : {16, 256, 4096}) {
      benchmark::RegisterBenchmark("E12/progress_update", BM_ProgressUpdate)
          ->Args({static_cast<std::int64_t>(p), depth});
    }
  }
}

// Wire-level message costs, read from the protocol's field table
// (core/wire.hpp), plus the per-policy scheduling fields each policy reads
// out of the shared OpContext envelope.
void print_metadata_table() {
  Rng rng{4242};
  SimTime now = 0;
  const sched::OpContext op = make_op(1, rng, now);
  core::OpResponse resp;
  resp.hit = true;
  resp.value_size = 0;

  das::Table table{{"message", "wire bytes", "notes"}};
  table.add_row({"op request", std::to_string(core::wire::op_wire_size(op)),
                 "full tag envelope incl. Fletcher-32 trailer"});
  table.add_row({"op response (header)",
                 std::to_string(core::wire::response_wire_size(resp)),
                 "plus value payload for read hits"});
  table.add_row({"progress update",
                 std::to_string(core::wire::progress_wire_size()),
                 "per (request, still-pending server) on sibling completion"});
  std::cout << "\n### E12 — Protocol message sizes (from the wire field table)\n\n";
  table.print(std::cout);

  das::Table fields{{"policy", "scheduling fields read", "bytes of envelope used"}};
  fields.add_row({"fcfs", "(arrival order only)", "0"});
  fields.add_row({"sjf", "demand", "8"});
  fields.add_row({"edf", "deadline", "8"});
  fields.add_row({"req-srpt", "request id + total remaining", "16"});
  fields.add_row({"rein-sbf", "request id + bottleneck (ops, demand)", "20"});
  fields.add_row({"das",
                  "request id + total remaining + critical + other-completion",
                  "32"});
  std::cout << "\n### E12 — Per-policy use of the tag envelope\n\n";
  fields.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  register_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_metadata_table();
  return 0;
}
