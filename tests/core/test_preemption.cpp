// Preempt-resume service mode (oracle upper bound).
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "sched/scheduler.hpp"

namespace das::core {
namespace {

ClusterConfig base(sched::Policy policy, bool preemptive) {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.75;
  cfg.policy = policy;
  cfg.preemptive_service = preemptive;
  cfg.seed = 55;
  return cfg;
}

RunWindow window() {
  RunWindow w;
  w.warmup_us = 10.0 * kMillisecond;
  w.measure_us = 80.0 * kMillisecond;
  return w;
}

TEST(Preemption, ConservesOperations) {
  Cluster cluster{base(sched::Policy::kReqSrpt, true), window()};
  const ExperimentResult r = cluster.run();
  EXPECT_EQ(r.requests_generated, r.requests_completed);
  EXPECT_EQ(r.ops_generated, r.ops_completed);
  std::uint64_t preemptions = 0;
  for (std::size_t s = 0; s < cluster.server_count(); ++s)
    preemptions += cluster.server(s).preemptions();
  EXPECT_GT(preemptions, 0u);
}

TEST(Preemption, PreemptiveSrptWinsInClassicMG1) {
  // Single server, fan-out 1, heavy-tailed sizes: textbook SRPT territory,
  // where preemption must be a large win (no fork-join structure).
  ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.num_clients = 1;
  cfg.keys_per_server = 20'000;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.8;
  cfg.fanout = make_fixed_int(1);
  cfg.per_op_overhead_us = 0.0;
  cfg.service_bytes_per_us = 1.0;
  cfg.value_size_bytes = make_lognormal_mean(30.0, 1.5);
  cfg.policy = sched::Policy::kReqSrpt;
  cfg.seed = 55;
  RunWindow w;
  w.warmup_us = 50.0 * kMillisecond;
  w.measure_us = 500.0 * kMillisecond;
  const ExperimentResult np = run_experiment(cfg, w);
  cfg.preemptive_service = true;
  const ExperimentResult p = run_experiment(cfg, w);
  EXPECT_LT(p.op_wait.mean, np.op_wait.mean * 0.3);
  EXPECT_LT(p.rct.mean, np.rct.mean * 0.7);
}

TEST(Preemption, ForkJoinPreemptionIsNotAFreeWin) {
  // With multiget fan-out, preempting on REQUEST totals buys little: here
  // the mean moves 186.0 -> 180.0 us, about a 3% win, against the >= 30% win
  // of the M/G/1 case above. A request waits for its slowest operation, so
  // letting one operation jump ahead on one server rarely finishes the
  // request sooner. Documented as a finding: non-preemptive service is not
  // just an implementation constraint, it is competitive for fork-join RCT.
  const ExperimentResult np =
      run_experiment(base(sched::Policy::kReqSrpt, false), window());
  const ExperimentResult p =
      run_experiment(base(sched::Policy::kReqSrpt, true), window());
  EXPECT_GT(p.rct.mean, np.rct.mean * 0.95);
}

TEST(Preemption, NoOpForPoliciesWithoutHook) {
  Cluster cluster{base(sched::Policy::kFcfs, true), window()};
  const ExperimentResult r = cluster.run();
  std::uint64_t preemptions = 0;
  for (std::size_t s = 0; s < cluster.server_count(); ++s)
    preemptions += cluster.server(s).preemptions();
  EXPECT_EQ(preemptions, 0u);
  // Identical to the non-preemptive run.
  const ExperimentResult plain =
      run_experiment(base(sched::Policy::kFcfs, false), window());
  EXPECT_DOUBLE_EQ(r.rct.mean, plain.rct.mean);
}

TEST(Preemption, DeterministicUnderPreemption) {
  const ExperimentResult a =
      run_experiment(base(sched::Policy::kDas, true), window());
  const ExperimentResult b =
      run_experiment(base(sched::Policy::kDas, true), window());
  EXPECT_DOUBLE_EQ(a.rct.mean, b.rct.mean);
}

TEST(Preemption, UtilisationUnchangedByPreemption) {
  // Preempt-resume wastes no work, so the served utilisation must match.
  const ExperimentResult np =
      run_experiment(base(sched::Policy::kReqSrpt, false), window());
  const ExperimentResult p =
      run_experiment(base(sched::Policy::kReqSrpt, true), window());
  EXPECT_NEAR(p.mean_server_utilization, np.mean_server_utilization, 0.01);
}

}  // namespace
}  // namespace das::core
