// E15 (extension) — Is non-preemptive service a real limitation? The paper
// (like production stores) serves operations to completion. This bench
// quantifies what preempt-resume service would buy: a large win in the
// classic single-key setting (textbook SRPT), but only a few percent in the
// fork-join multiget setting, where a request waits for its slowest
// operation and one operation jumping ahead on one server rarely finishes
// its request sooner.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto window = dasbench::eval_window();
  const std::vector<das::sched::Policy> policies = {
      das::sched::Policy::kFcfs, das::sched::Policy::kReqSrpt,
      das::sched::Policy::kDas};

  {
    // Classic M/G/1-flavoured point: fan-out 1, heavy-tailed sizes.
    auto cfg = dasbench::eval_config();
    cfg.fanout = das::make_fixed_int(1);
    cfg.per_op_overhead_us = 2.0;
    cfg.value_size_bytes = das::make_lognormal_mean(1000.0, 1.5);
    cfg.target_load = 0.8;
    cfg.preemptive_service = false;
    dasbench::register_point("E15_preemption", "fanout1/run-to-completion", cfg,
                             window, policies);
    cfg.preemptive_service = true;
    dasbench::register_point("E15_preemption", "fanout1/preempt-resume", cfg,
                             window, policies);
  }
  {
    // Fork-join point: the paper's default multiget workload.
    auto cfg = dasbench::eval_config();
    cfg.target_load = 0.8;
    cfg.preemptive_service = false;
    dasbench::register_point("E15_preemption", "multiget/run-to-completion", cfg,
                             window, policies);
    cfg.preemptive_service = true;
    dasbench::register_point("E15_preemption", "multiget/preempt-resume", cfg,
                             window, policies);
  }
  return dasbench::bench_main(argc, argv, "E15_preemption",
                              {{"Mean RCT: preemption ablation", "mean"},
                               {"p99 RCT: preemption ablation", "p99"}});
}
