// dassim — run arbitrary DAS cluster experiments from the command line.
//
//   ./build/tools/dassim --policy=das --load=0.8 --servers=64
//   ./build/tools/dassim --policy=all --fanout=bimodal:2:32:0.2 --format=csv
//   ./build/tools/dassim --policy=das,fcfs --stragglers=0.25 --straggler-speed=0.5
//   ./build/tools/dassim --sweep --jobs=4 --json=BENCH_sweep.json
//   ./build/tools/dassim --policy=das --trace=trace.json --breakdown
//   ./build/tools/dassim --load=1.2 --queue-cap=64 --deadline-ms=20 --admission
//   ./build/tools/dassim --perf --perf-json=BENCH_PERF.json
//
// Prints one row per policy; --format=csv emits machine-readable output for
// plotting scripts. --sweep runs a (load grid x policy) sweep across a
// thread pool (--jobs) with bit-identical-to-serial results and can persist
// them as BENCH_<experiment>.json (--json). --trace records the full op
// lifecycle of a single-policy run as Chrome trace-event JSON (open in
// Perfetto); --breakdown prints the exact per-component RCT attribution.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/bench_json.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/perf.hpp"
#include "core/sweep.hpp"
#include "fault/fault_plan.hpp"
#include "overload/overload.hpp"
#include "select/selector.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/tracer.hpp"
#include "workload/registry.hpp"
#include "workload/replay.hpp"
#include "workload/spec.hpp"

namespace {

using namespace das;

std::vector<sched::Policy> parse_policies(const std::string& spec) {
  if (spec == "all") return sched::all_policies();
  std::vector<sched::Policy> out;
  std::istringstream is{spec};
  std::string name;
  while (std::getline(is, name, ',')) out.push_back(sched::policy_from_string(name));
  DAS_CHECK_MSG(!out.empty(), "no policies given");
  return out;
}

/// --sweep: the (load x policy) grid, fanned out over a thread pool. All
/// stdout output is deterministic (bit-identical across --jobs values); the
/// wall-clock line goes to stderr.
int run_sweep(const core::ClusterConfig& base, const core::RunWindow& window,
              const std::vector<sched::Policy>& policies, const Flags& flags) {
  const std::string experiment = flags.get_string("experiment");
  const auto loads = core::parse_load_list(flags.get_string("sweep-loads"));
  const auto jobs_flag = flags.get_int("jobs");
  const std::size_t jobs = jobs_flag <= 0 ? core::SweepRunner::default_jobs()
                                          : static_cast<std::size_t>(jobs_flag);

  // Optional third grid dimension: replica-selection modes. Empty keeps the
  // single mode of --selection and the historical "load=X" point labels.
  std::vector<core::ReplicaSelection> selections;
  const std::string selections_spec = flags.get_string("sweep-selections");
  {
    std::istringstream is{selections_spec};
    std::string token;
    while (std::getline(is, token, ',')) {
      core::ReplicaSelection mode = core::ReplicaSelection::kPrimary;
      if (!select::mode_from_string(token, mode)) {
        std::cerr << "unknown --sweep-selections mode: " << token << "\n";
        return 2;
      }
      selections.push_back(mode);
    }
  }
  const auto point_label = [&](double load,
                               core::ReplicaSelection sel) -> std::string {
    std::string point = "load=" + Table::fmt(load, 2);
    if (!selections.empty())
      point += std::string(" sel=") + select::to_string(sel);
    return point;
  };
  const std::vector<core::ReplicaSelection> grid_selections =
      selections.empty()
          ? std::vector<core::ReplicaSelection>{base.replica_selection}
          : selections;

  core::SweepRunner runner;
  for (const double load : loads) {
    for (const core::ReplicaSelection sel : grid_selections) {
      core::ClusterConfig cfg = base;
      cfg.target_load = load;
      cfg.replica_selection = sel;
      const std::string point = point_label(load, sel);
      for (const sched::Policy policy : policies)
        runner.add(experiment, point, policy, cfg, window);
    }
  }

  // Wall-clock sweep timing for the operator's progress line only.
  const auto wall_start = std::chrono::steady_clock::now();  // NOLINT(das-no-wallclock)
  const std::vector<core::SweepOutcome> outcomes = runner.run(jobs);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // NOLINT(das-no-wallclock)
                                    wall_start)
          .count();
  std::cerr << "sweep: " << outcomes.size() << " points, jobs=" << jobs << ", "
            << wall_seconds << " s\n";

  const auto find_mean = [&](const std::string& point,
                             sched::Policy policy) -> double {
    for (const auto& o : outcomes)
      if (o.point == point && o.policy == policy) return o.result.rct.mean;
    return 0.0;
  };

  const std::string format = flags.get_string("format");
  if (format == "csv") {
    std::cout << "experiment,point,policy,requests,mean_rct_us,p50_us,p95_us,"
                 "p99_us,p999_us,mean_util,max_util,net_msgs,progress_msgs\n";
    for (const auto& o : outcomes) {
      const auto& r = o.result;
      std::cout << o.experiment << ',' << o.point << ','
                << sched::to_string(o.policy) << ',' << r.requests_measured
                << ',' << r.rct.mean << ',' << r.rct.p50 << ',' << r.rct.p95
                << ',' << r.rct.p99 << ',' << r.rct.p999 << ','
                << r.mean_server_utilization << ',' << r.max_server_utilization
                << ',' << r.net_messages << ',' << r.progress_messages << '\n';
    }
  } else if (format == "table") {
    std::vector<std::string> headers{"point"};
    for (const sched::Policy p : policies) headers.push_back(sched::to_string(p));
    const bool gains = policies.size() > 1 &&
                       policies.front() == sched::Policy::kFcfs;
    if (gains) headers.push_back("last vs fcfs");
    Table table{headers};
    for (const double load : loads) {
      for (const core::ReplicaSelection sel : grid_selections) {
        const std::string point = point_label(load, sel);
        std::vector<std::string> cells{point};
        for (const sched::Policy p : policies)
          cells.push_back(Table::fmt(find_mean(point, p), 1));
        if (gains) {
          const double fcfs = find_mean(point, sched::Policy::kFcfs);
          const double last = find_mean(point, policies.back());
          cells.push_back(fcfs > 0 ? Table::fmt_percent(1.0 - last / fcfs) : "-");
        }
        table.add_row(std::move(cells));
      }
    }
    std::cout << "== " << experiment << " — mean RCT (us) ==\n";
    table.print(std::cout);
  } else {
    std::cerr << "unknown --format: " << format << "\n";
    return 2;
  }

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    core::write_bench_json(json_path, experiment, outcomes);
    std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("policy", "fcfs,rein-sbf,das",
               "comma-separated policy list, or 'all'");
  flags.define("servers", "32", "number of store servers");
  flags.define("clients", "8", "number of front-end clients");
  flags.define("keys-per-server", "1000", "keyspace size per server");
  flags.define("load", "0.7",
               "target utilisation; > 1 drives deliberate overload (E22)");
  flags.define("calibration", "average",
               "load calibration: 'average' capacity or 'hottest' server");
  flags.define("theta", "0", "Zipf key-popularity skew (0 = uniform)");
  flags.define("fanout", "geometric:0.125:128",
               "multiget fan-out spec (fixed:K, uniform:LO:HI, geometric:P:CAP, "
               "zipf:N:THETA, bimodal:S:L:P)");
  flags.define("value-size", "gpareto:1:250:0.35:65536",
               "value-size spec in bytes (constant:V, uniform:LO:HI, "
               "exponential:M, lognormal:M:S, gpareto:L:S:SH:CAP)");
  flags.define("op-overhead-us", "20", "fixed service cost per op (us)");
  flags.define("bytes-per-us", "50", "service transfer rate (bytes/us)");
  flags.define("net-latency-us", "5", "one-way network latency (us)");
  flags.define("replication", "1", "copies per key");
  flags.define("selection", "primary",
               "replica selection: primary | random | least-delay | tars | "
               "power-of-d | c3");
  flags.define("replica-selection", "",
               "alias of --selection (takes precedence when set)");
  flags.define("stragglers", "0", "fraction of servers at reduced speed");
  flags.define("straggler-speed", "0.5", "speed factor of straggler servers");
  flags.define("ring-vnodes", "0", "consistent-hash vnodes (0 = modulo)");
  flags.define("loss", "0", "per-message drop probability (needs --retry-ms > 0)");
  flags.define("retry-ms", "0", "retransmission timeout in ms (0 = off)");
  flags.define("backoff-cap-ms", "0",
               "cap on the backed-off retransmission timeout in ms (0 = none)");
  flags.define("retry-max-attempts", "0",
               "send attempts per op before giving up and counting the "
               "request as failed (0 = retry forever)");
  flags.define("suspicion-rtos", "3",
               "consecutive retry timeouts before a server is suspected and "
               "reads fail over to other replicas (0 = off)");
  flags.define("faults", "",
               "scripted fault plan, e.g. "
               "crash@50ms:s3,recover@80ms:s3,partition@20ms:c0-s1,"
               "heal@30ms:c0-s1,slow@10ms-40ms:s2:x0.25,lossburst@5ms-9ms:p0.3");
  flags.define("chaos-crashes", "0",
               "chaos generator: crash/recover windows to script randomly");
  flags.define("chaos-slowdowns", "0",
               "chaos generator: gray-failure slowdown windows to script");
  flags.define("chaos-partitions", "0",
               "chaos generator: client-server partition windows to script");
  flags.define("chaos-seed", "1", "seed of the chaos fault generator");
  flags.define("hedge-ms", "0",
               "hedged-read delay in ms (0 = off; needs --replication >= 2)");
  flags.define("queue-cap", "0",
               "bounded server queues: max ops queued per server (0 = off)");
  flags.define("overload-policy", "reject-new",
               "bounded-queue shed policy: reject-new | sojourn-drop");
  flags.define("sojourn-us", "0",
               "sojourn-drop threshold in us (0 derives 2x the deadline "
               "budget, else 10ms)");
  flags.define("deadline-ms", "0",
               "end-to-end request deadline budget in ms (0 = off)");
  flags.define("admission", "false",
               "client-side AIMD admission control driven by BUSY/expiry");
  flags.define("preemptive", "false",
               "preempt-resume service (oracle upper bound)");
  flags.define("write-fraction", "0",
               "fraction of requests that are write-all PUTs");
  flags.define("workload", "",
               "workload-registry spec for a single tenant: '+'-joined "
               "clauses (ycsb-a|b|c|f, mix:R:U:M, zipf:THETA, fanout:<dist>, "
               "size:<dist>, drift:PERIOD_US:STRIDE, "
               "storm:START:END:KEYS:SHARE:SEED, replay:PATH, name:LABEL, "
               "share:W); unset clauses inherit the cluster flags");
  flags.define("tenants", "",
               "';'-separated list of --workload specs, one tenant each, "
               "sharing the cluster (equal keyspace slices, arrival rate "
               "split by share:W)");
  flags.define("replay", "",
               "replay a recorded trace file (shorthand for "
               "--workload=replay:FILE)");
  flags.define("record", "",
               "record every generated operation as a replay trace (CSV or "
               "JSONL by extension) to this path; single --policy, no --sweep");
  flags.define("store", "synthetic",
               "service-time model: 'synthetic' (client-computed demand) or "
               "'lsm' (memtable/flush/compaction storage engine)");
  flags.define("lsm-memtable-kb", "64", "LSM memtable flush threshold (KB)");
  flags.define("lsm-compact-trigger", "2",
               "L0 runs that trigger a background compaction");
  flags.define("lsm-drain-bpus", "16",
               "background compaction drain rate (bytes/us)");
  flags.define("lsm-compact-slowdown", "0.6",
               "effective-speed factor while compacting, in (0,1]");
  flags.define("lsm-stall-kb", "256",
               "compaction debt (KB) at which writes start stalling");
  flags.define("lsm-stall-mult", "4",
               "write cost multiplier while stalled (>= 1)");
  flags.define("lsm-interference", "true",
               "false = compaction costs nothing and writes never stall (the "
               "E20 control arm; the flush/compaction state machine still runs)");
  flags.define("warmup-ms", "30", "warmup window (ms, excluded from metrics)");
  flags.define("measure-ms", "200", "measurement window (ms)");
  flags.define("seed", "42", "simulation seed");
  flags.define("audit-every", "0",
               "run the invariant audit every N dispatched events (0 = off)");
  flags.define("format", "table", "output: table | csv");
  flags.define("sweep", "false",
               "run a (load grid x policy) sweep instead of a single point");
  flags.define("jobs", "1",
               "sweep worker threads (0 = hardware concurrency); results are "
               "bit-identical to --jobs=1");
  flags.define("sweep-loads", "0.3,0.5,0.6,0.7,0.8,0.9",
               "comma-separated target loads of the sweep grid (the E1 grid)");
  flags.define("sweep-selections", "",
               "comma-separated replica-selection modes added as a third "
               "sweep dimension (empty = just --selection); needs "
               "--replication >= 2");
  flags.define("experiment", "e1_load_mean", "sweep experiment label");
  flags.define("json", "",
               "write sweep results as BENCH-schema JSON to this path");
  flags.define("trace", "",
               "write a Chrome trace-event JSON (Perfetto-loadable) of the "
               "run to this path; requires exactly one --policy, no --sweep");
  flags.define("trace-cap", "1000000",
               "maximum retained trace events (overflow counted, not kept)");
  flags.define("breakdown", "false",
               "print the exact per-component RCT attribution per policy");
  flags.define("perf", "false",
               "run the engine throughput suite (events/sec) instead of an "
               "experiment and write --perf-json");
  flags.define("perf-scale", "1", "event-budget multiplier for --perf");
  flags.define("perf-json", "BENCH_PERF.json",
               "where --perf writes its schema_version-2 JSON ('' = skip)");
  flags.define("help", "false", "show this help");

  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::cerr << error << "\n\n";
    flags.print_help(std::cerr, "dassim");
    return 2;
  }
  if (flags.get_bool("help")) {
    flags.print_help(std::cout, "dassim");
    return 0;
  }

  if (flags.get_bool("perf")) {
    core::PerfOptions options;
    options.scale = flags.get_double("perf-scale");
    if (options.scale <= 0) {
      std::cerr << "--perf-scale must be positive\n";
      return 2;
    }
    const std::vector<core::PerfPoint> points = core::run_perf_suite(options);
    Table table{{"point", "events", "wall (s)", "events/sec", "sim time (ms)"}};
    for (const core::PerfPoint& p : points) {
      table.add_row({p.point, std::to_string(p.events),
                     Table::fmt(p.wall_seconds, 3),
                     Table::fmt(p.events_per_sec, 0),
                     Table::fmt(p.sim_time_us / 1000.0, 1)});
    }
    std::cout << "== engine throughput (scale "
              << flags.get_string("perf-scale") << ") ==\n";
    table.print(std::cout);
    const std::string perf_json = flags.get_string("perf-json");
    if (!perf_json.empty()) {
      core::write_perf_json(perf_json, "perf_throughput", points);
      std::cerr << "wrote " << perf_json << "\n";
    }
    return 0;
  }

  core::ClusterConfig cfg;
  cfg.num_servers = static_cast<std::size_t>(flags.get_int("servers"));
  cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients"));
  cfg.keys_per_server = static_cast<std::uint64_t>(flags.get_int("keys-per-server"));
  cfg.target_load = flags.get_double("load");
  const std::string calibration = flags.get_string("calibration");
  if (calibration == "average") {
    cfg.load_calibration = core::LoadCalibration::kAverageCapacity;
  } else if (calibration == "hottest") {
    cfg.load_calibration = core::LoadCalibration::kHottestServer;
  } else {
    std::cerr << "unknown --calibration: " << calibration << "\n";
    return 2;
  }
  cfg.zipf_theta = flags.get_double("theta");
  cfg.fanout = workload::parse_int_dist(flags.get_string("fanout"));
  cfg.value_size_bytes = workload::parse_real_dist(flags.get_string("value-size"));
  cfg.per_op_overhead_us = flags.get_double("op-overhead-us");
  cfg.service_bytes_per_us = flags.get_double("bytes-per-us");
  cfg.net_latency_us = flags.get_double("net-latency-us");
  cfg.replication = static_cast<std::size_t>(flags.get_int("replication"));
  std::string selection = flags.get_string("selection");
  if (!flags.get_string("replica-selection").empty())
    selection = flags.get_string("replica-selection");
  if (!select::mode_from_string(selection, cfg.replica_selection)) {
    std::cerr << "unknown --selection: " << selection << "\n";
    return 2;
  }
  cfg.ring_vnodes = static_cast<std::size_t>(flags.get_int("ring-vnodes"));
  cfg.msg_loss_probability = flags.get_double("loss");
  cfg.retry_timeout_us = flags.get_double("retry-ms") * kMillisecond;
  cfg.retry_backoff_max_us = flags.get_double("backoff-cap-ms") * kMillisecond;
  cfg.retry_max_attempts =
      static_cast<std::uint32_t>(flags.get_int("retry-max-attempts"));
  cfg.suspicion_rto_threshold =
      static_cast<std::uint32_t>(flags.get_int("suspicion-rtos"));
  cfg.hedge_delay_us = flags.get_double("hedge-ms") * kMillisecond;
  cfg.overload.queue_cap = static_cast<std::size_t>(flags.get_int("queue-cap"));
  if (!overload::policy_from_string(flags.get_string("overload-policy"),
                                    cfg.overload.reject_policy)) {
    std::cerr << "unknown --overload-policy: "
              << flags.get_string("overload-policy") << "\n";
    return 2;
  }
  cfg.overload.sojourn_threshold_us = flags.get_double("sojourn-us");
  cfg.overload.deadline_budget_us = flags.get_double("deadline-ms") * kMillisecond;
  cfg.overload.admission = flags.get_bool("admission");
  cfg.preemptive_service = flags.get_bool("preemptive");
  cfg.write_fraction = flags.get_double("write-fraction");
  if (!core::store_model_from_string(flags.get_string("store"), cfg.store_model)) {
    std::cerr << "unknown --store: " << flags.get_string("store") << "\n";
    return 2;
  }
  cfg.lsm.memtable_bytes = flags.get_double("lsm-memtable-kb") * 1024.0;
  cfg.lsm.l0_compaction_trigger =
      static_cast<std::size_t>(flags.get_int("lsm-compact-trigger"));
  cfg.lsm.compaction_bytes_per_us = flags.get_double("lsm-drain-bpus");
  cfg.lsm.compaction_capacity_factor = flags.get_double("lsm-compact-slowdown");
  cfg.lsm.stall_debt_bytes = flags.get_double("lsm-stall-kb") * 1024.0;
  cfg.lsm.stall_write_multiplier = flags.get_double("lsm-stall-mult");
  cfg.lsm.interference = flags.get_bool("lsm-interference");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.audit_every_events = static_cast<std::uint64_t>(flags.get_int("audit-every"));
  const double straggler_fraction = flags.get_double("stragglers");
  if (straggler_fraction > 0) {
    cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
    const auto n = static_cast<std::size_t>(
        straggler_fraction * static_cast<double>(cfg.num_servers));
    const double speed = flags.get_double("straggler-speed");
    for (std::size_t i = 0; i < n && i < cfg.num_servers; ++i)
      cfg.server_speed_factors[i] = speed;
  }

  // Workload registry: --replay is sugar for --workload=replay:FILE; a
  // single --workload becomes a one-tenant list. Registry parse errors are
  // usage errors.
  try {
    std::string workload_spec = flags.get_string("workload");
    const std::string tenants_spec = flags.get_string("tenants");
    const std::string replay_path = flags.get_string("replay");
    if (!replay_path.empty()) {
      if (!workload_spec.empty() || !tenants_spec.empty()) {
        std::cerr << "--replay is shorthand for --workload=replay:FILE; give "
                     "only one of --replay / --workload / --tenants\n";
        return 2;
      }
      workload_spec = "replay:" + replay_path;
    }
    if (!workload_spec.empty() && !tenants_spec.empty()) {
      std::cerr << "--workload and --tenants are mutually exclusive\n";
      return 2;
    }
    if (!tenants_spec.empty()) {
      cfg.tenants = workload::parse_tenants(tenants_spec);
    } else if (!workload_spec.empty()) {
      cfg.tenants = {workload::parse_tenant(workload_spec)};
      if (cfg.tenants.front().name.empty()) cfg.tenants.front().name = "t0";
    }
  } catch (const std::logic_error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  core::RunWindow window;
  window.warmup_us = flags.get_double("warmup-ms") * kMillisecond;
  window.measure_us = flags.get_double("measure-ms") * kMillisecond;

  // Fault timeline: scripted spec and/or seeded chaos windows (appended, then
  // re-sorted so the combined plan stays time-ordered).
  try {
    const std::string fault_spec = flags.get_string("faults");
    if (!fault_spec.empty()) cfg.fault_plan = fault::parse_fault_plan(fault_spec);
    fault::ChaosOptions chaos;
    chaos.horizon_us = window.horizon();
    chaos.num_servers = static_cast<std::uint32_t>(cfg.num_servers);
    chaos.num_clients = static_cast<std::uint32_t>(cfg.num_clients);
    chaos.crashes = static_cast<std::uint32_t>(flags.get_int("chaos-crashes"));
    chaos.slowdowns = static_cast<std::uint32_t>(flags.get_int("chaos-slowdowns"));
    chaos.partitions = static_cast<std::uint32_t>(flags.get_int("chaos-partitions"));
    if (chaos.crashes + chaos.slowdowns + chaos.partitions > 0) {
      const fault::FaultPlan generated = fault::make_chaos_plan(
          chaos, static_cast<std::uint64_t>(flags.get_int("chaos-seed")));
      cfg.fault_plan.events.insert(cfg.fault_plan.events.end(),
                                   generated.events.begin(),
                                   generated.events.end());
      std::stable_sort(cfg.fault_plan.events.begin(), cfg.fault_plan.events.end(),
                       [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                         return a.at < b.at;
                       });
    }
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::vector<sched::Policy> policies;
  try {
    policies = parse_policies(flags.get_string("policy"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const std::string trace_path = flags.get_string("trace");
  const std::string record_path = flags.get_string("record");

  if (flags.get_bool("sweep")) {
    if (!trace_path.empty()) {
      std::cerr << "--trace is incompatible with --sweep\n";
      return 2;
    }
    if (!record_path.empty()) {
      std::cerr << "--record is incompatible with --sweep\n";
      return 2;
    }
    try {
      return run_sweep(cfg, window, policies, flags);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";  // malformed grid spec = usage error
      return 2;
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }

  std::vector<core::PolicyRun> runs;
  if (!trace_path.empty()) {
    if (policies.size() != 1) {
      std::cerr << "--trace requires exactly one --policy\n";
      return 2;
    }
    trace::Tracer::Config trace_cfg;
    trace_cfg.cap = static_cast<std::size_t>(flags.get_int("trace-cap"));
    trace::Tracer tracer{trace_cfg};
    cfg.policy = policies.front();
    runs.push_back({policies.front(), core::run_experiment(cfg, window, &tracer)});
    trace::write_chrome_trace(trace_path, tracer);
    std::cerr << "trace: " << tracer.events().size() << " events retained, "
              << tracer.dropped() << " dropped (cap " << tracer.cap()
              << ") -> " << trace_path << "\n";
  } else if (!record_path.empty()) {
    if (policies.size() != 1) {
      std::cerr << "--record requires exactly one --policy\n";
      return 2;
    }
    cfg.policy = policies.front();
    workload::ReplayTrace recorded;
    core::Cluster cluster{cfg, window};
    cluster.set_workload_recorder(&recorded);
    runs.push_back({policies.front(), cluster.run()});
    recorded.save(record_path);
    std::cerr << "recorded " << recorded.size() << " ops -> " << record_path
              << "\n";
  } else {
    runs = core::compare_policies(cfg, policies, window);
  }
  const std::string format = flags.get_string("format");
  const double fcfs_mean =
      runs.front().policy == sched::Policy::kFcfs ? runs.front().result.rct.mean : 0;

  // Exact RCT attribution: component means over the measurement window plus
  // the mechanism-activation counters (what the scheduler actually did).
  const auto print_breakdown = [&runs] {
    Table table{{"policy", "requests", "mean RCT", "network", "runnable wait",
                 "deferred wait", "service", "straggler slack", "deferred",
                 "resumed", "aged", "reranks"}};
    for (const auto& [policy, r] : runs) {
      const auto& b = r.breakdown;
      table.add_row({sched::to_string(policy), std::to_string(b.requests),
                     Table::fmt(b.mean_rct_us, 1), Table::fmt(b.mean_network_us, 1),
                     Table::fmt(b.mean_runnable_wait_us, 1),
                     Table::fmt(b.mean_deferred_wait_us, 1),
                     Table::fmt(b.mean_service_us, 1),
                     Table::fmt(b.mean_straggler_slack_us, 1),
                     std::to_string(r.ops_deferred), std::to_string(r.ops_resumed),
                     std::to_string(r.ops_aged), std::to_string(r.reranks_applied)});
    }
    std::cout << "== RCT breakdown (component means, us) ==\n";
    table.print(std::cout);
  };

  // Per-tenant accounting and fairness, shown whenever tenants are
  // configured. The Jain index is a per-run scalar; it appears on the first
  // tenant row of each policy.
  const auto print_tenants = [&runs] {
    Table table{{"policy", "tenant", "share", "generated", "completed",
                 "failed", "measured", "mean RCT", "p99", "jain"}};
    for (const auto& [policy, r] : runs) {
      bool first_row = true;
      for (const auto& t : r.tenants) {
        table.add_row({sched::to_string(policy), t.name, Table::fmt(t.share, 2),
                       std::to_string(t.requests_generated),
                       std::to_string(t.requests_completed),
                       std::to_string(t.requests_failed),
                       std::to_string(t.requests_measured),
                       Table::fmt(t.rct.mean, 1), Table::fmt(t.rct.p99, 1),
                       first_row ? Table::fmt(r.jain_fairness, 4) : ""});
        first_row = false;
      }
    }
    std::cout << "== per-tenant RCT ==\n";
    table.print(std::cout);
  };
  const bool have_tenants = !runs.empty() && !runs.front().result.tenants.empty();

  // Graceful-degradation accounting, shown whenever a fault plan ran.
  const auto print_degradation = [&runs] {
    Table table{{"policy", "availability", "completed", "failed", "failover ok",
                 "ops failed-over", "abandoned", "suspicions", "crash-dropped"}};
    for (const auto& [policy, r] : runs) {
      table.add_row({sched::to_string(policy), Table::fmt(r.availability, 4),
                     std::to_string(r.requests_completed),
                     std::to_string(r.requests_failed),
                     std::to_string(r.requests_completed_after_failover),
                     std::to_string(r.ops_failed_over),
                     std::to_string(r.ops_abandoned),
                     std::to_string(r.suspicions_raised),
                     std::to_string(r.ops_dropped_crashed)});
    }
    std::cout << "== graceful degradation ==\n";
    table.print(std::cout);
  };

  // Overload-layer accounting, shown whenever any protection is on. Goodput
  // vs throughput is the headline: how much of the settled work completed
  // in time, and how much capacity went to shedding/waste instead.
  const auto print_overload = [&runs] {
    Table table{{"policy", "goodput rps", "throughput rps", "shed", "admission",
                 "expired", "busy", "sojourn", "op-expired", "wasted (ms)"}};
    for (const auto& [policy, r] : runs) {
      table.add_row({sched::to_string(policy), Table::fmt(r.goodput_rps, 0),
                     Table::fmt(r.throughput_rps, 0),
                     std::to_string(r.requests_shed),
                     std::to_string(r.requests_shed_admission),
                     std::to_string(r.requests_expired),
                     std::to_string(r.ops_rejected_busy),
                     std::to_string(r.ops_shed_sojourn),
                     std::to_string(r.ops_expired_dropped),
                     Table::fmt(r.wasted_service_us / 1000.0, 1)});
    }
    std::cout << "== overload control ==\n";
    table.print(std::cout);
  };

  if (format == "csv") {
    std::cout << "policy,requests,mean_rct_us,p50_us,p95_us,p99_us,p999_us,"
                 "mean_util,max_util,net_msgs,progress_msgs\n";
    for (const auto& [policy, r] : runs) {
      std::cout << sched::to_string(policy) << ',' << r.requests_measured << ','
                << r.rct.mean << ',' << r.rct.p50 << ',' << r.rct.p95 << ','
                << r.rct.p99 << ',' << r.rct.p999 << ','
                << r.mean_server_utilization << ',' << r.max_server_utilization
                << ',' << r.net_messages << ',' << r.progress_messages << '\n';
    }
    if (flags.get_bool("breakdown")) print_breakdown();
    if (have_tenants) print_tenants();
    if (!cfg.fault_plan.empty()) print_degradation();
    if (cfg.overload.enabled()) print_overload();
    return 0;
  }
  if (format != "table") {
    std::cerr << "unknown --format: " << format << "\n";
    return 2;
  }

  Table table{{"policy", "mean RCT", "p50", "p95", "p99", "p999", "vs fcfs",
               "util", "max util"}};
  for (const auto& [policy, r] : runs) {
    table.add_row(
        {sched::to_string(policy), Table::fmt(r.rct.mean, 1),
         Table::fmt(r.rct.p50, 1), Table::fmt(r.rct.p95, 1),
         Table::fmt(r.rct.p99, 1), Table::fmt(r.rct.p999, 1),
         fcfs_mean > 0 ? Table::fmt_percent(1.0 - r.rct.mean / fcfs_mean) : "-",
         Table::fmt(r.mean_server_utilization, 3),
         Table::fmt(r.max_server_utilization, 3)});
  }
  table.print(std::cout);
  if (flags.get_bool("breakdown")) print_breakdown();
  if (have_tenants) print_tenants();
  if (!cfg.fault_plan.empty()) print_degradation();
  if (cfg.overload.enabled()) print_overload();
  return 0;
}
