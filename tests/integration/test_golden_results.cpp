// Golden pinned-results regression: a fixed-seed E1-style grid (the five
// headline policies x loads {0.5, 0.8}) must reproduce EXACT pinned numbers.
//
// The determinism suite (test_determinism.cpp) proves two runs in the same
// build agree bit-for-bit; this test pins the values themselves, so any
// behaviour drift introduced by a refactor — container iteration order leaking
// into scheduling, an RNG consumed in a different order, a changed tie-break
// — fails loudly instead of silently shifting every published figure. The
// same table also protects every FUTURE refactor of the hot path. The
// engine-overhaul PR's hard constraint ("bit-identical ExperimentResult
// before vs after") is enforced exactly here: the table below was generated
// by the pre-overhaul engine.
//
// Updating the table (ONLY after an intentional behaviour change, with the
// diff explained in the PR):
//
//   DAS_REGEN_GOLDEN=1 ./build/tests/test_integration
//       --gtest_filter='GoldenResults.*' 2>/dev/null   (one command line)
//
// and paste the printed rows over kGolden below. Values are printed with
// %.17g, which round-trips doubles exactly, so EXPECT_EQ on the parsed
// literals is bit-exact.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "core/experiment.hpp"
#include "fault/fault_plan.hpp"
#include "workload/registry.hpp"

namespace das::core {
namespace {

struct GoldenCase {
  sched::Policy policy;
  double load;
};

struct GoldenRow {
  sched::Policy policy;
  double load;
  std::uint64_t requests_measured;
  double mean_rct_us;
  double p99_us;
};

// The five headline policies of the paper's figures (bench_common's
// headline_policies()), at a moderate and a high load.
constexpr GoldenCase kGrid[] = {
    {sched::Policy::kFcfs, 0.5},    {sched::Policy::kFcfs, 0.8},
    {sched::Policy::kSjf, 0.5},     {sched::Policy::kSjf, 0.8},
    {sched::Policy::kReqSrpt, 0.5}, {sched::Policy::kReqSrpt, 0.8},
    {sched::Policy::kReinSbf, 0.5}, {sched::Policy::kReinSbf, 0.8},
    {sched::Policy::kDas, 0.5},     {sched::Policy::kDas, 0.8},
};

ClusterConfig golden_config(sched::Policy policy, double load) {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.9;
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.target_load = load;
  cfg.policy = policy;
  cfg.seed = 20260805;
  return cfg;
}

RunWindow golden_window() {
  RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 20.0 * kMillisecond;
  return w;
}

const char* policy_token(sched::Policy policy) {
  switch (policy) {
    case sched::Policy::kFcfs: return "sched::Policy::kFcfs";
    case sched::Policy::kSjf: return "sched::Policy::kSjf";
    case sched::Policy::kEdf: return "sched::Policy::kEdf";
    case sched::Policy::kReqSrpt: return "sched::Policy::kReqSrpt";
    case sched::Policy::kReinSbf: return "sched::Policy::kReinSbf";
    case sched::Policy::kDas: return "sched::Policy::kDas";
    default: return "sched::Policy::kFcfs";
  }
}

// Pinned by the pre-overhaul engine (see the regen instructions above).
const GoldenRow kGolden[] = {
    // clang-format off
    {sched::Policy::kFcfs, 0.50, 238u, 111.7815549937673, 411.93545138558216},
    {sched::Policy::kFcfs, 0.80, 409u, 234.13564971657101, 771.03788468444714},
    {sched::Policy::kSjf, 0.50, 238u, 115.89562849463877, 538.89761471378563},
    {sched::Policy::kSjf, 0.80, 409u, 274.25575052204283, 1743.5257573947529},
    {sched::Policy::kReqSrpt, 0.50, 238u, 99.653541968123918, 468.82096919418495},
    {sched::Policy::kReqSrpt, 0.80, 409u, 159.21952965601406, 786.5357461666041},
    {sched::Policy::kReinSbf, 0.50, 238u, 101.95866451283365, 589.38438469719779},
    {sched::Policy::kReinSbf, 0.80, 409u, 176.83738478890336, 1346.0855100626377},
    {sched::Policy::kDas, 0.50, 238u, 100.2852144744184, 468.82096919418495},
    {sched::Policy::kDas, 0.80, 409u, 163.36876977997159, 1136.6043007220296},
    // clang-format on
};

// --- replica-selection dimension --------------------------------------------
//
// Same idea, one level up the stack: the client-side replica-selection layer
// (src/select) must not drift either. Replication 2 under DAS (the adaptive
// view feeds selection) pins every selection mode at the same two loads. The
// primary/random/least-delay rows below were generated BEFORE the selector
// refactor (PR 7) promoted the inline `Client::pick_server` switch into the
// pluggable layer — they prove the refactor is bit-exact. The tars and
// power-of-d rows pin the new modes from their first version.

struct SelectionGoldenRow {
  ReplicaSelection selection;
  double load;
  std::uint64_t requests_measured;
  double mean_rct_us;
  double p99_us;
};

constexpr ReplicaSelection kSelectionModes[] = {
    ReplicaSelection::kPrimary,    ReplicaSelection::kRandom,
    ReplicaSelection::kLeastDelay, ReplicaSelection::kTars,
    ReplicaSelection::kPowerOfD,   ReplicaSelection::kC3,
};

ClusterConfig selection_golden_config(ReplicaSelection selection, double load) {
  ClusterConfig cfg = golden_config(sched::Policy::kDas, load);
  cfg.replication = 2;
  cfg.replica_selection = selection;
  return cfg;
}

const char* selection_token(ReplicaSelection selection) {
  switch (selection) {
    case ReplicaSelection::kPrimary: return "ReplicaSelection::kPrimary";
    case ReplicaSelection::kRandom: return "ReplicaSelection::kRandom";
    case ReplicaSelection::kLeastDelay: return "ReplicaSelection::kLeastDelay";
    case ReplicaSelection::kTars: return "ReplicaSelection::kTars";
    case ReplicaSelection::kPowerOfD: return "ReplicaSelection::kPowerOfD";
    case ReplicaSelection::kC3: return "ReplicaSelection::kC3";
  }
  return "ReplicaSelection::kPrimary";
}

// Pinned by the pre-refactor inline pick_server (see above).
const SelectionGoldenRow kSelectionGolden[] = {
    // clang-format off
    {ReplicaSelection::kPrimary, 0.50, 238u, 100.2852144744184, 468.82096919418495},
    {ReplicaSelection::kPrimary, 0.80, 409u, 163.36876977997159, 1136.6043007220296},
    {ReplicaSelection::kRandom, 0.50, 304u, 110.09686772357466, 450.52773647699598},
    {ReplicaSelection::kRandom, 0.80, 512u, 156.60461695419744, 712.04055040433855},
    {ReplicaSelection::kLeastDelay, 0.50, 308u, 128.04665772156497, 544.28659086092296},
    {ReplicaSelection::kLeastDelay, 0.80, 504u, 168.51746036498113, 851.70550695269287},
    {ReplicaSelection::kTars, 0.50, 308u, 140.72191534556796, 684.25697341329601},
    {ReplicaSelection::kTars, 0.80, 504u, 177.07133119319812, 950.2208747876565},
    {ReplicaSelection::kPowerOfD, 0.50, 279u, 120.5384824696981, 549.72945676953248},
    {ReplicaSelection::kPowerOfD, 0.80, 467u, 168.45944438727741, 860.22256202222036},
    {ReplicaSelection::kC3, 0.50, 308u, 128.04665772156497, 544.28659086092296},
    {ReplicaSelection::kC3, 0.80, 504u, 168.51746036498113, 851.70550695269287},
    // clang-format on
};

TEST(GoldenResults, PinnedSelectionGridIsBitExact) {
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    for (const ReplicaSelection selection : kSelectionModes) {
      for (const double load : {0.5, 0.8}) {
        const ExperimentResult r = run_experiment(
            selection_golden_config(selection, load), golden_window());
        std::printf("    {%s, %.2f, %lluu, %.17g, %.17g},\n",
                    selection_token(selection), load,
                    static_cast<unsigned long long>(r.requests_measured),
                    r.rct.mean, r.rct.p99);
      }
    }
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed fresh rows, skipped the "
                    "comparison";
  }
  ASSERT_EQ(std::size(kSelectionGolden), std::size(kSelectionModes) * 2)
      << "selection golden table incomplete — regenerate with "
         "DAS_REGEN_GOLDEN=1";
  for (const SelectionGoldenRow& row : kSelectionGolden) {
    SCOPED_TRACE(std::string(selection_token(row.selection)) +
                 " @ load=" + std::to_string(row.load));
    const ExperimentResult r = run_experiment(
        selection_golden_config(row.selection, row.load), golden_window());
    EXPECT_EQ(r.requests_measured, row.requests_measured);
    EXPECT_EQ(r.rct.mean, row.mean_rct_us);
    EXPECT_EQ(r.rct.p99, row.p99_us);
  }
}

// --- multi-tenant dimension -------------------------------------------------
//
// One pinned multi-tenant row: a drifting, storm-prone YCSB-B tenant next to
// a read-only tenant with twice the arrival share, under DAS at load 0.8.
// This pins the whole tenant pipeline — registry parsing, per-tenant
// generators (drift rotation + storm hot sets), share-split arrivals and
// per-tenant accounting — on top of the same golden cluster. The legacy
// rows above MUST stay bit-identical; tenancy is opt-in and the legacy RNG
// fork order does not change.

struct TenantGoldenRow {
  const char* name;
  std::uint64_t requests_measured;
  double mean_rct_us;
};

constexpr const char* kTenantGoldenSpec =
    "ycsb-b+zipf:1.1+drift:4000:13+storm:6000:14000:4:0.6:7+name:bursty;"
    "ycsb-c+share:2+name:steady";

// Pinned by the first tenant-aware engine (regen as above).
const TenantGoldenRow kTenantGolden[] = {
    // clang-format off
    {"bursty", 164u, 157.40095129006468},
    {"steady", 324u, 201.15427001080627},
    // clang-format on
};
const double kTenantGoldenJain = 0.98532795326169331;

TEST(GoldenResults, PinnedTenantRowIsBitExact) {
  ClusterConfig cfg = golden_config(sched::Policy::kDas, 0.8);
  cfg.tenants = workload::parse_tenants(kTenantGoldenSpec);
  const ExperimentResult r = run_experiment(cfg, golden_window());
  ASSERT_EQ(r.tenants.size(), 2u);
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    for (const TenantOutcome& t : r.tenants) {
      std::printf("    {\"%s\", %lluu, %.17g},\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.requests_measured),
                  t.rct.mean);
    }
    std::printf("const double kTenantGoldenJain = %.17g;\n", r.jain_fairness);
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed fresh rows, skipped the "
                    "comparison";
  }
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    SCOPED_TRACE(kTenantGolden[t].name);
    EXPECT_EQ(r.tenants[t].name, kTenantGolden[t].name);
    EXPECT_EQ(r.tenants[t].requests_measured, kTenantGolden[t].requests_measured);
    EXPECT_EQ(r.tenants[t].rct.mean, kTenantGolden[t].mean_rct_us);
  }
  EXPECT_EQ(r.jain_fairness, kTenantGoldenJain);
}

// --- scenario dimension -----------------------------------------------------
//
// Every headline policy plus EDF under the scenarios that reach the
// less-travelled paths: message loss with retransmission, a crash that
// drains a server's queue, the LSM store with 30% writes, two tenants, and a
// client-server partition that heals (retransmission carries the cut ops
// across). A 1 ms aging bound (the default is 50 ms, longer than the run)
// makes DAS's and Rein's starvation guards fire. The req-srpt, SJF, EDF and
// Rein rows of the first four scenarios were generated while req-srpt still
// had its own scheduler class and Rein, SJF and EDF still kept their queues
// in an ordered set; they prove the move to DasScheduler, Rein's per-level
// FIFOs and the frozen-key heap bit-exact. The das and fcfs rows and the
// partition column were generated while every network message was its own
// simulator event; they prove batched fan-out delivery bit-exact on the
// loss, crash and partition paths it touches. The ring-replicated scenario
// (16 vnodes, R = 3, least-delay selection, 0.3 ms hedge, LSM store, 30%
// writes) and the net_bytes column were generated while every server still
// kept its own hash-table store: responses carry the stored value size, so
// net_bytes pins every read's hit and size, and the scenario pins replica
// reads and in-place writes on ring placement.

enum class Scenario {
  kLoss,
  kCrash,
  kLsmWrites,
  kTenants,
  kPartition,
  kRingReplicated,
};

struct ScenarioGoldenRow {
  sched::Policy policy;
  Scenario scenario;
  std::uint64_t requests_measured;
  double mean_rct_us;
  double p99_us;
  std::uint64_t reranks_applied;
  std::uint64_t ops_aged;
  std::uint64_t net_bytes;
};

constexpr sched::Policy kScenarioPolicies[] = {
    sched::Policy::kReqSrpt, sched::Policy::kSjf, sched::Policy::kEdf,
    sched::Policy::kReinSbf, sched::Policy::kDas, sched::Policy::kFcfs,
};
constexpr Scenario kScenarios[] = {
    Scenario::kLoss,      Scenario::kCrash,     Scenario::kLsmWrites,
    Scenario::kTenants,   Scenario::kPartition, Scenario::kRingReplicated,
};

ClusterConfig scenario_golden_config(sched::Policy policy, Scenario scenario) {
  ClusterConfig cfg = golden_config(policy, 0.8);
  cfg.sched_config.max_wait_us = 1.0 * kMillisecond;
  switch (scenario) {
    case Scenario::kLoss:
      cfg.msg_loss_probability = 0.01;
      cfg.retry_timeout_us = 1.0 * kMillisecond;
      break;
    case Scenario::kCrash:
      cfg.retry_timeout_us = 1.0 * kMillisecond;
      cfg.fault_plan = fault::parse_fault_plan("crash@8ms:s3,recover@14ms:s3");
      break;
    case Scenario::kLsmWrites:
      cfg.store_model = StoreModel::kLsm;
      cfg.write_fraction = 0.3;
      break;
    case Scenario::kTenants:
      cfg.tenants = workload::parse_tenants(kTenantGoldenSpec);
      break;
    case Scenario::kPartition:
      cfg.retry_timeout_us = 1.0 * kMillisecond;
      cfg.fault_plan =
          fault::parse_fault_plan("partition@10ms:c0-s1,heal@18ms:c0-s1");
      break;
    case Scenario::kRingReplicated:
      cfg.ring_vnodes = 16;
      cfg.replication = 3;
      cfg.replica_selection = ReplicaSelection::kLeastDelay;
      cfg.hedge_delay_us = 0.3 * kMillisecond;
      cfg.store_model = StoreModel::kLsm;
      cfg.write_fraction = 0.3;
      break;
  }
  return cfg;
}

const char* scenario_token(Scenario scenario) {
  switch (scenario) {
    case Scenario::kLoss: return "Scenario::kLoss";
    case Scenario::kCrash: return "Scenario::kCrash";
    case Scenario::kLsmWrites: return "Scenario::kLsmWrites";
    case Scenario::kTenants: return "Scenario::kTenants";
    case Scenario::kPartition: return "Scenario::kPartition";
    case Scenario::kRingReplicated: return "Scenario::kRingReplicated";
  }
  return "Scenario::kLoss";
}

// Pinned by the build described above (regen as above).
const ScenarioGoldenRow kScenarioGolden[] = {
    // clang-format off
    {sched::Policy::kReqSrpt, Scenario::kLoss, 409u, 335.03264467754019, 3569.1703785916625, 11990u, 0u, 2267475u},
    {sched::Policy::kReqSrpt, Scenario::kCrash, 409u, 1295.8850084790504, 13406.332705817345, 12418u, 0u, 2271782u},
    {sched::Policy::kReqSrpt, Scenario::kLsmWrites, 367u, 78.547816306133058, 372.91979031493315, 4940u, 0u, 1287907u},
    {sched::Policy::kReqSrpt, Scenario::kTenants, 488u, 177.61332706779959, 1008.6786061088077, 16786u, 0u, 2569751u},
    {sched::Policy::kReqSrpt, Scenario::kPartition, 409u, 893.70030188178816, 11433.205579732959, 12052u, 0u, 2261054u},
    {sched::Policy::kReqSrpt, Scenario::kRingReplicated, 415u, 109.35961403799753, 512.74258953328888, 7952u, 0u, 1532665u},
    {sched::Policy::kSjf, Scenario::kLoss, 409u, 522.4730774799217, 5475.0281022619856, 0u, 0u, 1949529u},
    {sched::Policy::kSjf, Scenario::kCrash, 409u, 1769.6519022041939, 12755.665566225349, 0u, 0u, 2069542u},
    {sched::Policy::kSjf, Scenario::kLsmWrites, 367u, 90.926049649999314, 523.04871558290779, 0u, 0u, 1084481u},
    {sched::Policy::kSjf, Scenario::kTenants, 488u, 384.82649639854031, 3942.584569554635, 0u, 0u, 2142351u},
    {sched::Policy::kSjf, Scenario::kPartition, 409u, 1029.3080178319747, 11207.92626186939, 0u, 0u, 1998841u},
    {sched::Policy::kSjf, Scenario::kRingReplicated, 415u, 130.85183487414383, 631.89983481370427, 0u, 0u, 1409261u},
    {sched::Policy::kEdf, Scenario::kLoss, 409u, 349.4148899187166, 1243.0873845693914, 0u, 0u, 1854563u},
    {sched::Policy::kEdf, Scenario::kCrash, 409u, 2674.6677549698197, 11547.537635530298, 0u, 0u, 2069904u},
    {sched::Policy::kEdf, Scenario::kLsmWrites, 367u, 88.982511873011418, 344.38516968746262, 0u, 0u, 1084481u},
    {sched::Policy::kEdf, Scenario::kTenants, 488u, 334.43942029034497, 1125.35079279409, 0u, 0u, 2144871u},
    {sched::Policy::kEdf, Scenario::kPartition, 409u, 1088.8281259304526, 14662.308641059124, 0u, 0u, 1921006u},
    {sched::Policy::kEdf, Scenario::kRingReplicated, 415u, 129.57680849938743, 478.24427067498783, 0u, 0u, 1337405u},
    {sched::Policy::kReinSbf, Scenario::kLoss, 409u, 844.02200463840654, 4531.8992962116063, 0u, 555u, 2012898u},
    {sched::Policy::kReinSbf, Scenario::kCrash, 409u, 2128.3274980842593, 10453.835180271839, 0u, 1087u, 2156484u},
    {sched::Policy::kReinSbf, Scenario::kLsmWrites, 367u, 79.064000623458782, 388.06182921007832, 0u, 0u, 1084481u},
    {sched::Policy::kReinSbf, Scenario::kTenants, 488u, 267.94383055410498, 1194.5825430457378, 0u, 124u, 2144241u},
    {sched::Policy::kReinSbf, Scenario::kPartition, 409u, 1370.6372832015422, 9750.4808135721705, 0u, 689u, 2066266u},
    {sched::Policy::kReinSbf, Scenario::kRingReplicated, 415u, 108.48014273683009, 424.41750749801668, 0u, 0u, 1367371u},
    {sched::Policy::kDas, Scenario::kLoss, 409u, 803.35086249302572, 4355.066146834858, 12218u, 516u, 2364192u},
    {sched::Policy::kDas, Scenario::kCrash, 409u, 1961.2316937261085, 10350.331861655279, 13849u, 1041u, 2491106u},
    {sched::Policy::kDas, Scenario::kLsmWrites, 367u, 78.881075119172934, 372.91979031493315, 4996u, 0u, 1287870u},
    {sched::Policy::kDas, Scenario::kTenants, 488u, 239.48941569529231, 1373.1418288148961, 17263u, 154u, 2572290u},
    {sched::Policy::kDas, Scenario::kPartition, 409u, 1326.00915383755, 13012.054444106496, 12799u, 645u, 2401918u},
    {sched::Policy::kDas, Scenario::kRingReplicated, 415u, 108.07422216210675, 468.82096919418495, 7647u, 0u, 1545047u},
    {sched::Policy::kFcfs, Scenario::kLoss, 409u, 358.18819462878923, 1472.193898129324, 0u, 0u, 1853240u},
    {sched::Policy::kFcfs, Scenario::kCrash, 409u, 1762.8097985561565, 10146.389434031254, 0u, 0u, 1971314u},
    {sched::Policy::kFcfs, Scenario::kLsmWrites, 367u, 88.982511873011418, 344.38516968746262, 0u, 0u, 1084481u},
    {sched::Policy::kFcfs, Scenario::kTenants, 488u, 334.43942029034497, 1125.35079279409, 0u, 0u, 2144871u},
    {sched::Policy::kFcfs, Scenario::kPartition, 409u, 968.76062570263218, 14662.308641059124, 0u, 0u, 1856917u},
    {sched::Policy::kFcfs, Scenario::kRingReplicated, 415u, 128.83989739042062, 441.65056021664088, 0u, 0u, 1335695u},
    // clang-format on
};

TEST(GoldenResults, PinnedScenarioRowsAreBitExact) {
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    for (const sched::Policy policy : kScenarioPolicies) {
      for (const Scenario scenario : kScenarios) {
        const ExperimentResult r = run_experiment(
            scenario_golden_config(policy, scenario), golden_window());
        std::printf("    {%s, %s, %lluu, %.17g, %.17g, %lluu, %lluu, %lluu},\n",
                    policy_token(policy), scenario_token(scenario),
                    static_cast<unsigned long long>(r.requests_measured),
                    r.rct.mean, r.rct.p99,
                    static_cast<unsigned long long>(r.reranks_applied),
                    static_cast<unsigned long long>(r.ops_aged),
                    static_cast<unsigned long long>(r.net_bytes));
      }
    }
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed fresh rows, skipped the "
                    "comparison";
  }
  ASSERT_EQ(std::size(kScenarioGolden),
            std::size(kScenarioPolicies) * std::size(kScenarios))
      << "scenario golden table incomplete — regenerate with "
         "DAS_REGEN_GOLDEN=1";
  for (const ScenarioGoldenRow& row : kScenarioGolden) {
    SCOPED_TRACE(std::string(sched::to_string(row.policy)) + " in " +
                 scenario_token(row.scenario));
    const ExperimentResult r = run_experiment(
        scenario_golden_config(row.policy, row.scenario), golden_window());
    EXPECT_EQ(r.requests_measured, row.requests_measured);
    EXPECT_EQ(r.rct.mean, row.mean_rct_us);
    EXPECT_EQ(r.rct.p99, row.p99_us);
    EXPECT_EQ(r.reranks_applied, row.reranks_applied);
    EXPECT_EQ(r.ops_aged, row.ops_aged);
    EXPECT_EQ(r.net_bytes, row.net_bytes);
  }
}

TEST(GoldenResults, PinnedGridIsBitExact) {
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    for (const GoldenCase& c : kGrid) {
      const ExperimentResult r =
          run_experiment(golden_config(c.policy, c.load), golden_window());
      std::printf("    {%s, %.2f, %lluu, %.17g, %.17g},\n", policy_token(c.policy),
                  c.load, static_cast<unsigned long long>(r.requests_measured),
                  r.rct.mean, r.rct.p99);
    }
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed fresh rows, skipped the "
                    "comparison";
  }
  ASSERT_EQ(std::size(kGolden), std::size(kGrid))
      << "golden table incomplete — regenerate with DAS_REGEN_GOLDEN=1";
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(std::string(sched::to_string(row.policy)) +
                 " @ load=" + std::to_string(row.load));
    const ExperimentResult r =
        run_experiment(golden_config(row.policy, row.load), golden_window());
    EXPECT_EQ(r.requests_measured, row.requests_measured);
    // Exact equality on purpose: these are pinned bits, not approximations.
    EXPECT_EQ(r.rct.mean, row.mean_rct_us);
    EXPECT_EQ(r.rct.p99, row.p99_us);
  }
}

}  // namespace
}  // namespace das::core
