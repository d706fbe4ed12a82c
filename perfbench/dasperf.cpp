// dasperf — the repository benchmark's measuring program.
//
// Runs one named cluster workload through the public das_core API
// (ClusterConfig, Cluster, Cluster::run, Cluster::set_workload_recorder and
// an optional trace::Tracer), checks its outputs and prints one JSON object
// on stdout. run.py builds this program, runs it and turns that object into
// the benchmark's result line; README.md in this directory documents the
// workloads and every metric.
//
//   dasperf --workload <das-read|fcfs-read|rein-lsm-write> --seed N
//           --seconds S --trace 0|1 [--scale full|smoke]
//
// --trace 0 measures the end-to-end metrics: a fixed set of sub-runs (seeds
// derived from --seed, count from --seconds) simulated once for the
// simulated metrics, then repeated round robin until --seconds have elapsed
// for the host timings. Every repeat must reproduce every simulated number
// bit for bit.
//
// --trace 1 measures the per-layer metrics: half the sub-runs untraced for
// the layer counters, a short traced run (checked to reproduce the untraced
// result) for event counts, queue depths and the op stream, then
// microbenchmarks that call each layer's public functions with that
// workload's own inputs, and a host-time ledger that multiplies each layer's
// cost per call by its calls per request.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/cluster.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "net/network.hpp"
#include "sched/scheduler.hpp"
#include "select/selector.hpp"
#include "sim/simulator.hpp"
#include "store/lsm_model.hpp"
#include "store/partitioner.hpp"
#include "store/storage_engine.hpp"
#include "trace/tracer.hpp"
#include "workload/multiget.hpp"
#include "workload/replay.hpp"
#include "workload/spec.hpp"

namespace {

using namespace das;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads ---------------------------------------------------------------

/// How much simulated work one invocation does. A run simulates
/// round(subruns_per_second × --seconds) sub-runs with seeds derived from
/// --seed, so every simulated number depends on --seed and --seconds only.
/// The rate is set so the sub-runs take about three quarters of --seconds
/// on a 4-core x86 container; the rest of the time repeats them for the host
/// timings.
struct Shape {
  double subruns_per_second;
  Duration warmup_us;
  Duration measure_us;
  /// The traced run (--trace 1): one sub-run seed, a window short enough
  /// that the full event log fits in memory without drops.
  Duration trace_warmup_us;
  Duration trace_measure_us;

  std::size_t subruns(double seconds) const {
    return static_cast<std::size_t>(std::max(1L, std::lround(seconds * subruns_per_second)));
  }
};

struct Workload {
  const char* name;
  sched::Policy policy;
  core::StoreModel store;
  double load;
  double write_fraction;
  std::size_t replication;
  select::Mode selection;
  Shape shape;
};

// das-read and fcfs-read share their windows and sub-run seeds, so the first
// sub-runs of fcfs-read replay das-read's request stream exactly. FCFS is
// cheaper per request and its tail needs more samples to settle, so it
// simulates more sub-runs in the same time.
constexpr Shape kDasShape{1.0, 10.0 * kMillisecond, 100.0 * kMillisecond,
                          10.0 * kMillisecond, 30.0 * kMillisecond};
constexpr Shape kFcfsShape{2.5, 10.0 * kMillisecond, 100.0 * kMillisecond,
                           10.0 * kMillisecond, 30.0 * kMillisecond};
constexpr Shape kLsmShape{1.3, 40.0 * kMillisecond, 160.0 * kMillisecond,
                          40.0 * kMillisecond, 20.0 * kMillisecond};
/// --scale smoke: a tiny window for the benchmark's own smoke test.
constexpr Shape kSmokeShape{2.0, 2.0 * kMillisecond, 6.0 * kMillisecond,
                            2.0 * kMillisecond, 4.0 * kMillisecond};

const Workload kWorkloads[] = {
    {"das-read", sched::Policy::kDas, core::StoreModel::kSynthetic, 0.8, 0.0, 1,
     select::Mode::kPrimary, kDasShape},
    {"fcfs-read", sched::Policy::kFcfs, core::StoreModel::kSynthetic, 0.8, 0.0,
     1, select::Mode::kPrimary, kFcfsShape},
    {"rein-lsm-write", sched::Policy::kReinSbf, core::StoreModel::kLsm, 0.5, 0.3,
     2, select::Mode::kLeastDelay, kLsmShape},
};

/// LSM knobs. Every field is written out so a change of the library's
/// defaults cannot change the benchmark's traffic.
store::LsmOptions lsm_options() {
  store::LsmOptions o;
  o.per_op_overhead_us = 20.0;
  o.service_bytes_per_us = 50.0;
  o.memtable_bytes = 16.0 * 1024.0;
  o.entry_overhead_bytes = 32.0;
  o.l0_compaction_trigger = 2;
  o.compaction_bytes_per_us = 4.0;
  o.compaction_jitter = 0.1;
  o.compaction_capacity_factor = 0.6;
  o.stall_debt_bytes = 64.0 * 1024.0;
  o.stall_write_multiplier = 4.0;
  o.memtable_read_factor = 0.25;
  o.level_read_step = 0.3;
  o.max_read_levels = 8;
  o.interference = true;
  return o;
}

/// The cluster of one sub-run, with every ClusterConfig field set explicitly.
core::ClusterConfig make_config(const Workload& w, std::uint64_t seed) {
  core::ClusterConfig c;
  // topology
  c.num_servers = 64;
  c.num_clients = 8;
  c.keys_per_server = 1000;
  c.ring_vnodes = 0;
  c.log_structured_storage = false;
  c.replication = w.replication;
  c.replica_selection = w.selection;
  // workload: open-loop Poisson multigets, uniform keys
  c.zipf_theta = 0.0;
  c.fanout = workload::parse_int_dist("geometric:0.125:128");
  c.value_size_bytes = workload::parse_real_dist("gpareto:1:250:0.35:65536");
  c.target_load = w.load;
  c.load_calibration = core::LoadCalibration::kAverageCapacity;
  c.write_fraction = w.write_fraction;
  c.write_size_bytes = nullptr;
  c.load_profile = nullptr;
  c.tenants = {};
  // service model
  c.per_op_overhead_us = 20.0;
  c.service_bytes_per_us = 50.0;
  c.server_speed_factors = {};
  c.speed_profiles = {};
  c.store_model = w.store;
  c.lsm = lsm_options();
  // scheduling
  c.policy = w.policy;
  c.sched_config.max_wait_us = 50.0 * kMillisecond;
  c.sched_config.rein_levels = 2;
  c.sched_config.rein_threshold_alpha = 0.05;
  c.sched_config.rein_use_bytes = true;
  c.sched_config.das_defer_margin = 2.0;
  c.sched_config.seed = 1;
  c.preemptive_service = false;
  // client side
  c.client_adaptive = true;
  c.progress_updates = true;
  c.client_ewma_alpha = 0.3;
  c.server_speed_alpha = 0.1;
  c.edf_slo_us = 10.0 * kMillisecond;
  // network: constant 5 µs, no loss, no retries, no hedging
  c.net_latency_us = 5.0;
  c.net_jitter_sigma = 0.0;
  c.msg_loss_probability = 0.0;
  c.retry_timeout_us = 0.0;
  c.retry_backoff_max_us = 0.0;
  c.retry_max_attempts = 0;
  c.suspicion_rto_threshold = 3;
  c.hedge_delay_us = 0.0;
  // overload control and faults: off
  c.overload = overload::OverloadConfig{};
  c.overload.queue_cap = 0;
  c.overload.reject_policy = overload::RejectPolicy::kRejectNew;
  c.overload.sojourn_threshold_us = 0;
  c.overload.deadline_budget_us = 0;
  c.overload.admission = false;
  c.overload.admission_floor = 0.05;
  c.overload.admission_increase = 0.02;
  c.overload.admission_decrease = 0.5;
  c.fault_plan = fault::FaultPlan{};
  // run control. The breakdown keeps every in-window row so percentiles are
  // exact order statistics rather than histogram bucket midpoints.
  c.seed = seed;
  c.audit_every_events = 0;
  c.timeline_bucket_us = 0;
  c.breakdown_retain_requests = std::size_t{1} << 26;
  return c;
}

/// Seed of sub-run `index`: a pure function of the invocation's --seed.
std::uint64_t subrun_seed(std::uint64_t seed, std::size_t index) {
  Rng root{seed};
  return root.fork(0xBE7C0000ull + index).next_u64();
}

// --- checks ------------------------------------------------------------------

struct Checks {
  struct Entry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> entries;

  void expect(const std::string& name, bool ok, const std::string& detail = "") {
    for (Entry& e : entries) {
      if (e.name == name) {
        if (e.ok && !ok) {
          e.ok = false;
          e.detail = detail;
        }
        return;
      }
    }
    entries.push_back({name, ok, ok ? "" : detail});
  }
  bool all_ok() const {
    return std::all_of(entries.begin(), entries.end(),
                       [](const Entry& e) { return e.ok; });
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(std::uint64_t a, std::uint64_t b) { return a == b; }

/// Names of the ExperimentResult fields that differ bitwise between two runs
/// (host wall time excluded: it is the one field allowed to move).
std::vector<std::string> result_diff(const core::ExperimentResult& a,
                                     const core::ExperimentResult& b) {
  std::vector<std::string> diff;
  const auto cmp = [&](const char* name, auto x, auto y) {
    if (!same_bits(x, y)) diff.emplace_back(name);
  };
  const auto cmp_summary = [&](const char* name, const LatencySummary& x,
                               const LatencySummary& y) {
    if (x.count != y.count || !same_bits(x.mean, y.mean) ||
        !same_bits(x.p50, y.p50) || !same_bits(x.p95, y.p95) ||
        !same_bits(x.p99, y.p99) || !same_bits(x.p999, y.p999) ||
        !same_bits(x.max, y.max)) {
      diff.emplace_back(name);
    }
  };
#define DASPERF_CMP(field) cmp(#field, a.field, b.field)
  cmp_summary("rct", a.rct, b.rct);
  cmp_summary("op_latency", a.op_latency, b.op_latency);
  cmp_summary("op_wait", a.op_wait, b.op_wait);
  DASPERF_CMP(requests_generated);
  DASPERF_CMP(requests_completed);
  DASPERF_CMP(requests_measured);
  DASPERF_CMP(requests_failed);
  DASPERF_CMP(requests_failed_measured);
  DASPERF_CMP(requests_shed);
  DASPERF_CMP(requests_expired);
  DASPERF_CMP(requests_shed_measured);
  DASPERF_CMP(requests_expired_measured);
  DASPERF_CMP(requests_shed_admission);
  DASPERF_CMP(ops_rejected_busy);
  DASPERF_CMP(ops_shed_sojourn);
  DASPERF_CMP(ops_expired_dropped);
  DASPERF_CMP(wasted_service_us);
  DASPERF_CMP(throughput_rps);
  DASPERF_CMP(goodput_rps);
  DASPERF_CMP(requests_completed_after_failover);
  DASPERF_CMP(ops_failed_over);
  DASPERF_CMP(ops_abandoned);
  DASPERF_CMP(suspicions_raised);
  DASPERF_CMP(ops_dropped_crashed);
  DASPERF_CMP(server_crashes);
  DASPERF_CMP(server_recoveries);
  DASPERF_CMP(net_messages_dropped_partition);
  DASPERF_CMP(availability);
  DASPERF_CMP(ops_generated);
  DASPERF_CMP(ops_completed);
  DASPERF_CMP(mean_server_utilization);
  DASPERF_CMP(max_server_utilization);
  DASPERF_CMP(net_messages);
  DASPERF_CMP(net_messages_dropped);
  DASPERF_CMP(net_bytes);
  DASPERF_CMP(progress_messages);
  DASPERF_CMP(ops_retransmitted);
  DASPERF_CMP(duplicate_responses);
  DASPERF_CMP(ops_hedged);
  DASPERF_CMP(ops_deferred);
  DASPERF_CMP(ops_resumed);
  DASPERF_CMP(ops_aged);
  DASPERF_CMP(reranks_applied);
  DASPERF_CMP(store_flushes);
  DASPERF_CMP(store_compactions);
  DASPERF_CMP(store_write_stalls);
  DASPERF_CMP(store_stalled_write_ops);
  DASPERF_CMP(store_memtable_hits);
  DASPERF_CMP(store_level_reads);
  DASPERF_CMP(store_compaction_busy_us);
  DASPERF_CMP(store_write_stall_us);
  DASPERF_CMP(breakdown.requests);
  DASPERF_CMP(breakdown.mean_rct_us);
  DASPERF_CMP(breakdown.mean_network_us);
  DASPERF_CMP(breakdown.mean_runnable_wait_us);
  DASPERF_CMP(breakdown.mean_deferred_wait_us);
  DASPERF_CMP(breakdown.mean_service_us);
  DASPERF_CMP(breakdown.mean_straggler_slack_us);
  DASPERF_CMP(jain_fairness);
  DASPERF_CMP(sim_duration_us);
#undef DASPERF_CMP
  if (a.timeline.size() != b.timeline.size()) diff.emplace_back("timeline");
  if (a.tenants.size() != b.tenants.size()) diff.emplace_back("tenants");
  return diff;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : ",") + p;
  return out;
}

// --- one cluster run ----------------------------------------------------------

struct RunOutcome {
  core::ExperimentResult result;
  std::uint64_t events = 0;
  /// In-window request completion times, in completion order.
  std::vector<double> rct;
  /// FNV-1a over the bits of `rct`, for cheap repeat comparisons.
  std::uint64_t rct_digest = 0;
  double setup_s = 0;
  double wall_s = 0;
  /// The run's key catalogue after the run (store microbenchmarks).
  std::vector<Bytes> key_sizes;
};

std::uint64_t digest(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : values) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

RunOutcome run_cluster(const core::ClusterConfig& config,
                       const core::RunWindow& window, trace::Tracer* tracer,
                       workload::ReplayTrace* recorder, bool keep_catalogue) {
  RunOutcome out;
  const auto setup_start = Clock::now();
  config.validate();
  core::Cluster cluster(config, window, tracer);
  out.setup_s = seconds_since(setup_start);
  if (recorder != nullptr) cluster.set_workload_recorder(recorder);
  const auto run_start = Clock::now();
  out.result = cluster.run();
  out.wall_s = seconds_since(run_start);
  out.events = cluster.simulator().events_dispatched();
  const auto& rows = cluster.breakdown().rows();
  out.rct.reserve(rows.size());
  for (const trace::RequestBreakdown& row : rows) out.rct.push_back(row.rct_us);
  out.rct_digest = digest(out.rct);
  if (keep_catalogue) out.key_sizes = cluster.key_sizes();
  return out;
}

/// Per-run output checks: conservation, nothing failed, and the retained
/// RCT rows describe the same population as the metrics pipeline.
void check_run(Checks& checks, const RunOutcome& run) {
  const core::ExperimentResult& r = run.result;
  const std::uint64_t settled = r.requests_completed + r.requests_failed +
                                r.requests_shed + r.requests_expired;
  checks.expect("conservation", r.requests_generated == settled,
                "generated " + std::to_string(r.requests_generated) +
                    " != settled " + std::to_string(settled));
  checks.expect("all_completed", r.requests_completed == r.requests_generated,
                "completed " + std::to_string(r.requests_completed) + " of " +
                    std::to_string(r.requests_generated));
  checks.expect("ops_conserved", r.ops_completed == r.ops_generated,
                "ops completed " + std::to_string(r.ops_completed) + " of " +
                    std::to_string(r.ops_generated));
  checks.expect("no_waste", r.ops_retransmitted == 0 &&
                                r.duplicate_responses == 0 &&
                                r.net_messages_dropped == 0,
                "retransmits/duplicates/drops on a fault-free run");
  checks.expect("rct_rows_match_metrics",
                run.rct.size() == r.requests_measured &&
                    r.breakdown.requests == r.requests_measured &&
                    r.requests_measured > 0,
                "breakdown rows " + std::to_string(run.rct.size()) +
                    " vs measured " + std::to_string(r.requests_measured));
  double sum = 0;
  for (const double v : run.rct) sum += v;
  const double mean = run.rct.empty() ? 0 : sum / static_cast<double>(run.rct.size());
  checks.expect("rct_mean_matches_metrics",
                std::abs(mean - r.rct.mean) <= 1e-9 * std::max(1.0, r.rct.mean),
                "row mean " + std::to_string(mean) + " vs metrics mean " +
                    std::to_string(r.rct.mean));
}

/// The repeat check: a second run of the same config must reproduce every
/// simulated number exactly.
void check_repeat(Checks& checks, const std::string& name, const RunOutcome& a,
                  const RunOutcome& b) {
  std::vector<std::string> diff = result_diff(a.result, b.result);
  if (a.events != b.events) diff.emplace_back("events_dispatched");
  if (a.rct_digest != b.rct_digest) diff.emplace_back("rct_rows");
  checks.expect(name, diff.empty(), "differs in " + join(diff));
}

// --- end-to-end statistics ---------------------------------------------------

/// Nearest-rank quantile of sorted values.
double quantile(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Sums of the simulated counters over a set of sub-runs.
struct Totals {
  double requests = 0;
  double ops = 0;
  double completed = 0;
  double unsettled = 0;  // failed + shed + expired
  double events = 0;
  double messages = 0;
  double bytes = 0;
  double progress = 0;
  double retransmits = 0;
  double duplicates = 0;
  double deferred = 0;
  double reranks = 0;
  double aged = 0;
  double flushes = 0;
  double compactions = 0;
  double memtable_hits = 0;
  double level_reads = 0;
  double compaction_busy_us = 0;
  double write_stall_us = 0;
  double sim_us = 0;
  double util_weighted = 0;
  double util_max = 0;
  // Breakdown components, weighted by in-window request count.
  double measured = 0;
  double network_us = 0;
  double service_us = 0;
  double runnable_us = 0;
  double deferred_us = 0;
  double slack_us = 0;
  double rct_us = 0;

  void add(const RunOutcome& run) {
    const core::ExperimentResult& r = run.result;
    const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
    requests += d(r.requests_generated);
    ops += d(r.ops_generated);
    completed += d(r.requests_completed);
    unsettled += d(r.requests_failed + r.requests_shed + r.requests_expired);
    events += d(run.events);
    messages += d(r.net_messages);
    bytes += d(r.net_bytes);
    progress += d(r.progress_messages);
    retransmits += d(r.ops_retransmitted);
    duplicates += d(r.duplicate_responses);
    deferred += d(r.ops_deferred);
    reranks += d(r.reranks_applied);
    aged += d(r.ops_aged);
    flushes += d(r.store_flushes);
    compactions += d(r.store_compactions);
    memtable_hits += d(r.store_memtable_hits);
    level_reads += d(r.store_level_reads);
    compaction_busy_us += r.store_compaction_busy_us;
    write_stall_us += r.store_write_stall_us;
    sim_us += r.sim_duration_us;
    util_weighted += r.mean_server_utilization;
    util_max = std::max(util_max, r.max_server_utilization);
    const double m = d(r.breakdown.requests);
    measured += m;
    network_us += m * r.breakdown.mean_network_us;
    service_us += m * r.breakdown.mean_service_us;
    runnable_us += m * r.breakdown.mean_runnable_wait_us;
    deferred_us += m * r.breakdown.mean_deferred_wait_us;
    slack_us += m * r.breakdown.mean_straggler_slack_us;
    rct_us += m * r.breakdown.mean_rct_us;
  }
};

// --- JSON output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const std::string& workload, std::uint64_t seed, int trace,
                const Checks& checks, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Metric>& metrics,
                const std::vector<std::pair<std::string, double>>& info) {
  std::string out = "{\"workload\": \"" + json_escape(workload) + "\"";
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"trace\": " + std::to_string(trace);
  out += ", \"correct\": " + std::string(checks.all_ok() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < checks.entries.size(); ++i) {
    const auto& e = checks.entries[i];
    out += (i ? ", " : "") + std::string("{\"name\": \"") + json_escape(e.name) +
           "\", \"ok\": " + (e.ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(e.detail) + "\"}";
  }
  out += "], \"info\": {";
  for (std::size_t i = 0; i < info.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(info[i].first) +
           "\": " + json_number(info[i].second);
  }
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- layer microbenchmarks -----------------------------------------------------
//
// Each times a layer's public functions on inputs taken from this workload's
// own run: the recorded op stream, the traced queue depths and per-server
// estimates, the traced request completion times. A benchmark repeats its
// batch and reports the median cost per call, in ns.

volatile double g_sink = 0;  // keeps timed results observable

template <typename Batch>
double median_ns_per_call(int batches, Batch&& batch) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    const double calls = batch();
    samples.push_back(seconds_since(start) * 1e9 / std::max(1.0, calls));
  }
  return median(samples);
}

constexpr int kBatches = 5;

/// Simulator::schedule_after + dispatch with `depth` events pending; each
/// event carries an op-sized capture, like the cluster's per-op closures.
double bench_sim(std::size_t depth, double mean_gap_us, std::size_t events) {
  struct Chain {
    sim::Simulator sim;
    Rng rng{11};
    std::uint64_t remaining = 0;
    double mean_gap = 1;
    double sink = 0;
    void arm(const sched::OpContext& ctx) {
      sim.schedule_after(rng.exponential(mean_gap), [this, ctx] {
        sink += ctx.demand_us;
        if (remaining > 0) {
          --remaining;
          arm(ctx);
        }
      });
    }
  } chain;
  chain.mean_gap = mean_gap_us;
  sched::OpContext ctx;
  ctx.demand_us = 1.0;
  const std::size_t d = std::max<std::size_t>(depth, 1);
  const double ns = median_ns_per_call(kBatches, [&] {
    const std::uint64_t before = chain.sim.events_dispatched();
    chain.remaining = events;
    for (std::size_t i = 0; i < d; ++i) chain.arm(ctx);
    chain.sim.run();
    return static_cast<double>(chain.sim.events_dispatched() - before);
  });
  g_sink = chain.sink;
  return ns;
}

struct NetCost {
  /// Network::send plus the delivery event it schedules.
  double ns_send = 0;
  /// The same chains with the send replaced by a plain schedule_after of the
  /// same delay: the simulator's share of ns_send.
  double ns_plain = 0;
};

/// Chains of messages on random client/server links, `in_flight` outstanding,
/// each delivery sending the chain's next message.
NetCost bench_net(const core::ClusterConfig& config, std::size_t in_flight,
                  Bytes message_bytes, std::size_t sends) {
  const std::size_t servers = config.num_servers;
  const std::size_t clients = config.num_clients;
  const Duration latency = config.net_latency_us;
  sim::Simulator sim;
  net::Network::Config cfg;
  cfg.latency = net::make_constant_latency(latency);
  cfg.bandwidth_bytes_per_us = 0.0;
  cfg.fifo_per_link = true;
  cfg.loss_probability = 0.0;
  cfg.num_nodes = static_cast<std::uint32_t>(servers + clients);
  net::Network network(sim, cfg, Rng{13});
  struct Chains {
    sim::Simulator* sim;
    net::Network* net;
    bool plain;
    Rng rng;
    std::size_t servers, clients;
    Duration latency;
    Bytes size;
    std::uint64_t remaining = 0;
    std::uint64_t sent = 0;
    double sink = 0;
    void send(const sched::OpContext& ctx) {
      const auto server = static_cast<net::NodeId>(rng.next_below(servers));
      const auto client = static_cast<net::NodeId>(servers + rng.next_below(clients));
      const bool to_server = rng.chance(0.5);
      auto deliver = [this, ctx] {
        sink += ctx.demand_us;
        if (remaining > 0) {
          --remaining;
          send(ctx);
        }
      };
      ++sent;
      if (plain) {
        sim->schedule_after(latency, std::move(deliver));
      } else {
        net->send(to_server ? client : server, to_server ? server : client, size,
                  std::move(deliver));
      }
    }
  };
  sched::OpContext ctx;
  ctx.demand_us = 1.0;
  const std::size_t m = std::max<std::size_t>(in_flight, 1);
  // Batches alternate between the two variants so drift hits both alike.
  Chains with_net{&sim, &network, false, Rng{17}, servers, clients, latency, message_bytes};
  Chains plain{&sim, &network, true, Rng{17}, servers, clients, latency, message_bytes};
  std::vector<double> net_ns, plain_ns;
  for (int b = 0; b < 2 * kBatches; ++b) {
    Chains& chains = b % 2 == 0 ? with_net : plain;
    const std::uint64_t before = chains.sent;
    const auto start = Clock::now();
    chains.remaining = sends;
    for (std::size_t i = 0; i < m; ++i) chains.send(ctx);
    sim.run();
    const double ns =
        seconds_since(start) * 1e9 / static_cast<double>(chains.sent - before);
    (b % 2 == 0 ? net_ns : plain_ns).push_back(ns);
  }
  g_sink = with_net.sink + plain.sink;
  NetCost cost;
  cost.ns_send = median(net_ns);
  cost.ns_plain = median(plain_ns);
  return cost;
}

/// One scheduler enqueue + dequeue round trip with `depth` ops queued.
double bench_sched(const core::ClusterConfig& config,
                   const std::vector<sched::OpContext>& ops, std::size_t depth,
                   std::size_t rounds) {
  sched::SchedulerPtr s = sched::make_scheduler(config.policy, config.sched_config);
  const SimTime span = ops.back().request_arrival + 1.0;
  std::size_t next = 0;
  std::uint64_t cycle = 0;
  const auto take = [&] {
    sched::OpContext op = ops[next];
    // Fresh ids and times on every lap over the recorded stream.
    op.op_id += cycle << 40;
    op.request_id += cycle << 40;
    const double shift = static_cast<double>(cycle) * span;
    op.request_arrival += shift;
    if (op.est_other_completion > 0) op.est_other_completion += shift;
    op.deadline += shift;
    if (++next == ops.size()) {
      next = 0;
      ++cycle;
    }
    return op;
  };
  double sink = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    const sched::OpContext op = take();
    s->enqueue(op, op.request_arrival);
  }
  const double ns = median_ns_per_call(kBatches, [&] {
    for (std::size_t i = 0; i < rounds; ++i) {
      const sched::OpContext op = take();
      s->enqueue(op, op.request_arrival);
      sink += s->dequeue(op.request_arrival).demand_us;
    }
    return static_cast<double>(rounds);
  });
  g_sink = sink;
  return ns;
}

/// Scheduler::on_request_progress with `depth` ops queued; a `hit_frac`
/// share of the updates name a queued request (the rest find none, as most
/// real progress messages do).
double bench_progress(const core::ClusterConfig& config,
                      const std::vector<sched::OpContext>& ops, std::size_t depth,
                      double hit_frac, std::size_t updates) {
  sched::SchedulerPtr s = sched::make_scheduler(config.policy, config.sched_config);
  const std::size_t d = std::min(std::max<std::size_t>(depth, 1), ops.size());
  for (std::size_t i = 0; i < d; ++i) s->enqueue(ops[i], ops[i].request_arrival);
  Rng rng{19};
  std::vector<std::pair<RequestId, sched::ProgressUpdate>> plan;
  plan.reserve(4096);
  const SimTime now = ops[d - 1].request_arrival;
  for (std::size_t i = 0; i < 4096; ++i) {
    const sched::OpContext& op = ops[rng.next_below(d)];
    const bool hit = rng.chance(hit_frac);
    sched::ProgressUpdate u;
    u.remaining_critical_us = op.remaining_critical_us * rng.uniform(0.2, 1.0);
    u.est_other_completion =
        op.est_other_completion > 0 ? now + rng.uniform(0, 200) : 0;
    u.remaining_total_us = op.total_demand_us * rng.uniform(0.2, 1.0);
    plan.emplace_back(hit ? op.request_id : op.request_id + (1ull << 60), u);
  }
  std::size_t k = 0;
  const double ns = median_ns_per_call(kBatches, [&] {
    for (std::size_t i = 0; i < updates; ++i) {
      const auto& [rid, u] = plan[k];
      s->on_request_progress(rid, u, now);
      k = (k + 1) % plan.size();
    }
    return static_cast<double>(updates);
  });
  g_sink = static_cast<double>(s->size());
  return ns;
}

/// Where each recorded op lands: reads on their primary, writes on every
/// replica.
struct StoreCall {
  SimTime t;
  KeyId key;
  Bytes size;
  bool is_write;
  ServerId server;
};

std::vector<StoreCall> store_calls(const workload::ReplayTrace& ops,
                                   const store::Partitioner& placement,
                                   std::size_t replication) {
  std::vector<StoreCall> calls;
  for (const workload::ReplayRecord& r : ops.records) {
    const bool write = r.op == workload::ReplayOp::kWrite;
    if (!write) {
      calls.push_back({r.timestamp_us, r.key, r.size_bytes, false,
                       placement.server_for(r.key)});
      continue;
    }
    for (const ServerId s : placement.replicas_for(r.key, replication))
      calls.push_back({r.timestamp_us, r.key, r.size_bytes, true, s});
  }
  return calls;
}

/// StorageEngine::get (and put, for writes) over the recorded op stream,
/// against engines populated like the cluster's.
double bench_store_get(const std::vector<StoreCall>& calls,
                       const std::vector<Bytes>& catalogue,
                       const store::Partitioner& placement,
                       std::size_t replication, std::size_t servers) {
  std::vector<store::StorageEngine> engines(servers);
  for (KeyId key = 0; key < catalogue.size(); ++key) {
    for (const ServerId s : placement.replicas_for(key, replication))
      engines[s].put(key, catalogue[key], 0);
  }
  double sink = 0;
  const double ns = median_ns_per_call(kBatches, [&] {
    for (const StoreCall& c : calls) {
      if (c.is_write) {
        sink += static_cast<double>(engines[c.server].put(c.key, c.size, c.t));
      } else if (const auto rec = engines[c.server].get(c.key, c.t)) {
        sink += static_cast<double>(rec->size);
      }
    }
    return static_cast<double>(calls.size());
  });
  g_sink = sink;
  return ns;
}

/// LsmModel::base_cost_us + on_op_complete over the recorded op stream, each
/// server serving its calls back to back.
double bench_lsm(const std::vector<StoreCall>& calls, const core::ClusterConfig& config) {
  std::vector<std::unique_ptr<store::LsmModel>> models;
  for (std::size_t s = 0; s < config.num_servers; ++s)
    models.push_back(std::make_unique<store::LsmModel>(config.lsm, 0x15A0D0 + s));
  std::vector<SimTime> clock(config.num_servers, 0.0);
  const SimTime span = calls.back().t + 1.0;
  double lap = 0;
  double sink = 0;
  const double ns = median_ns_per_call(kBatches, [&] {
    for (const StoreCall& c : calls) {
      store::OpCostQuery q;
      q.key = c.key;
      q.is_write = c.is_write;
      q.size_bytes = c.size;
      q.nominal_demand_us = config.per_op_overhead_us +
                            static_cast<double>(c.size) / config.service_bytes_per_us;
      SimTime& now = clock[c.server];
      now = std::max(now, c.t + lap);
      const double cost = models[c.server]->base_cost_us(q, now);
      now += cost / models[c.server]->capacity_factor(now);
      models[c.server]->on_op_complete(q, now);
      sink += cost;
    }
    lap += span;
    return static_cast<double>(calls.size());
  });
  g_sink = sink;
  return ns;
}

/// The client's replica choice for each recorded read, as
/// Client::pick_server makes it: the owner from the partitioner at R = 1;
/// at R > 1 the replica set from the partitioner and this workload's
/// selector's pick, with the learned view set to the traced per-server
/// backlog and speed.
double bench_select(const workload::ReplayTrace& ops,
                    const store::Partitioner& placement, std::size_t replication,
                    const std::vector<double>& d_est,
                    const std::vector<double>& mu_est, const core::ClusterConfig& config) {
  std::unique_ptr<select::ReplicaSelector> selector =
      select::make_selector(config.replica_selection);
  const std::vector<char> suspected(d_est.size(), 0);
  select::LearnedView view;
  view.d_est = &d_est;
  view.mu_est = &mu_est;
  view.suspected = &suspected;
  view.est_rtt_us = 2.0 * config.net_latency_us;
  view.adaptive = config.client_adaptive;
  Rng rng{23};
  double sink = 0;
  const double ns = median_ns_per_call(kBatches, [&] {
    double picks = 0;
    for (const workload::ReplayRecord& r : ops.records) {
      if (r.op == workload::ReplayOp::kWrite) continue;
      ++picks;
      if (replication <= 1) {
        sink += placement.server_for(r.key);
        continue;
      }
      select::SelectionContext ctx;
      ctx.demand_us = config.per_op_overhead_us +
                      static_cast<double>(r.size_bytes) / config.service_bytes_per_us;
      ctx.key = r.key;
      ctx.now = r.timestamp_us;
      sink += selector->pick(placement.replicas_for(r.key, replication), view, ctx, rng);
    }
    return picks;
  });
  g_sink = sink;
  return ns;
}

/// One request's worth of workload generation: a multiget from
/// MultigetGenerator::generate, or a PUT's key and size at the write share.
double bench_workload(const core::ClusterConfig& config, std::size_t requests) {
  workload::MultigetGenerator::Config gen_cfg;
  gen_cfg.key_universe = config.num_servers * config.keys_per_server;
  gen_cfg.zipf_theta = config.zipf_theta;
  gen_cfg.fanout = config.fanout;
  const workload::MultigetGenerator gen(gen_cfg);
  Rng rng{29};
  double sink = 0;
  return median_ns_per_call(kBatches, [&] {
    for (std::size_t i = 0; i < requests; ++i) {
      if (config.write_fraction > 0 && rng.chance(config.write_fraction)) {
        sink += static_cast<double>(gen.sample_key(rng)) +
                config.value_size_bytes->sample(rng);
      } else {
        sink += static_cast<double>(gen.generate(rng).keys.size());
      }
    }
    g_sink = sink;
    return static_cast<double>(requests);
  });
}

/// LatencyRecorder::add over the traced request completion times.
double bench_metrics(const std::vector<double>& values, std::size_t adds) {
  LatencyRecorder recorder(1e9);
  std::size_t k = 0;
  const double ns = median_ns_per_call(kBatches, [&] {
    for (std::size_t i = 0; i < adds; ++i) {
      recorder.add(values[k]);
      if (++k == values.size()) k = 0;
    }
    return static_cast<double>(adds);
  });
  g_sink = recorder.moments().mean();
  return ns;
}

// --- traced-run analysis --------------------------------------------------------

struct TraceDigest {
  std::map<trace::EventKind, std::uint64_t> kinds;
  double queue_depth_mean = 0;
  std::vector<double> d_est;   // per-server mean sampled backlog (µs)
  std::vector<double> mu_est;  // per-server mean sampled speed estimate
  std::vector<sched::OpContext> ops;
  std::vector<double> rct;
};

/// Rebuilds the traced run's op stream as scheduler inputs, tagging each op
/// the way Client::dispatch_plan does from what the trace carries (demands,
/// placement, the latest sampled backlog of each server).
TraceDigest digest_trace(const trace::Tracer& tracer, const core::ClusterConfig& config) {
  TraceDigest out;
  const std::size_t servers = config.num_servers;
  std::vector<double> backlog(servers, 0.0);
  std::vector<double> backlog_sum(servers, 0.0), mu_sum(servers, 0.0);
  std::vector<std::uint64_t> samples(servers, 0);
  double depth_sum = 0;
  std::uint64_t depth_samples = 0;
  const double rtt = 2.0 * config.net_latency_us;

  std::vector<const trace::TraceEvent*> request_ops;
  const auto flush_request = [&] {
    if (request_ops.empty()) return;
    std::map<ServerId, std::pair<std::uint32_t, double>> per_server;  // ops, demand
    std::map<ServerId, double> full_estimate;
    double critical = 0, total = 0;
    for (const trace::TraceEvent* e : request_ops) {
      auto& agg = per_server[e->server];
      ++agg.first;
      agg.second += e->a;
      full_estimate[e->server] =
          std::max(full_estimate[e->server], e->t + rtt + backlog[e->server] + e->a);
      critical = std::max(critical, e->a);
      total += e->a;
    }
    std::uint32_t bottleneck_ops = 0;
    double bottleneck_demand = 0;
    for (const auto& [s, agg] : per_server) {
      bottleneck_ops = std::max(bottleneck_ops, agg.first);
      bottleneck_demand = std::max(bottleneck_demand, agg.second);
    }
    for (const trace::TraceEvent* e : request_ops) {
      sched::OpContext op;
      op.op_id = e->op;
      op.request_id = e->request;
      op.client = e->client;
      op.demand_us = e->a;
      op.request_arrival = e->t;
      op.remaining_critical_us = critical;
      for (const auto& [s, est] : full_estimate)
        if (s != e->server) op.est_other_completion = std::max(op.est_other_completion, est);
      op.bottleneck_ops = bottleneck_ops;
      op.bottleneck_demand_us = bottleneck_demand;
      op.total_demand_us = total;
      op.deadline = e->t + config.edf_slo_us;
      out.ops.push_back(op);
    }
    request_ops.clear();
  };

  for (const trace::TraceEvent& e : tracer.events()) {
    ++out.kinds[e.kind];
    switch (e.kind) {
      case trace::EventKind::kCounterSample:
        backlog[e.server] = e.a;
        backlog_sum[e.server] += e.a;
        mu_sum[e.server] += e.b;
        ++samples[e.server];
        depth_sum += e.c + e.d;
        ++depth_samples;
        break;
      case trace::EventKind::kOpSend:
        if (e.b != 0) break;  // resends carry no new tags
        if (!request_ops.empty() && request_ops.front()->request != e.request)
          flush_request();
        request_ops.push_back(&e);
        break;
      case trace::EventKind::kRequestComplete:
        out.rct.push_back(e.a);
        break;
      default:
        break;
    }
  }
  flush_request();
  out.queue_depth_mean = depth_samples ? depth_sum / static_cast<double>(depth_samples) : 0;
  out.d_est.resize(servers);
  out.mu_est.resize(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    const auto n = static_cast<double>(samples[s]);
    out.d_est[s] = samples[s] ? backlog_sum[s] / n : 0.0;
    out.mu_est[s] = samples[s] ? mu_sum[s] / n : 1.0;
  }
  return out;
}

std::uint64_t kind_count(const TraceDigest& t, trace::EventKind kind) {
  const auto it = t.kinds.find(kind);
  return it == t.kinds.end() ? 0 : it->second;
}

// --- the two modes ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scale = "full";
};

struct Report {
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;
};

Report measure_end_to_end(const Workload& w, const Shape& shape, const Args& args,
                          Clock::time_point start) {
  Report rep;
  core::RunWindow window;
  window.warmup_us = shape.warmup_us;
  window.measure_us = shape.measure_us;
  const std::size_t subruns = shape.subruns(args.seconds);

  // Every sub-run once: these define every simulated number. Percentiles
  // are taken per sub-run and their median reported: the pooled tail is
  // dominated by the few sub-runs whose key catalogue holds a very large
  // value, so it swings from seed to seed far more than a typical window's.
  std::vector<RunOutcome> runs;
  std::vector<double> wall_us_per_request, setups;
  std::vector<double> p50s, p99s, p999s, window_sizes;
  double rct_sum = 0;
  Totals tot;
  const auto time_run = [&](const RunOutcome& run) {
    wall_us_per_request.push_back(
        run.wall_s * 1e6 / static_cast<double>(run.result.requests_generated));
    setups.push_back(run.setup_s);
  };
  for (std::size_t i = 0; i < subruns; ++i) {
    RunOutcome run = run_cluster(make_config(w, subrun_seed(args.seed, i)), window,
                                 nullptr, nullptr, false);
    check_run(rep.checks, run);
    time_run(run);
    tot.add(run);
    for (const double v : run.rct) rct_sum += v;
    std::sort(run.rct.begin(), run.rct.end());
    p50s.push_back(quantile(run.rct, 0.50));
    p99s.push_back(quantile(run.rct, 0.99));
    p999s.push_back(quantile(run.rct, 0.999));
    window_sizes.push_back(static_cast<double>(run.rct.size()));
    run.rct = {};
    runs.push_back(std::move(run));
  }

  // Then repeat them round robin until --seconds are spent (at least two
  // repeats): each repeat must reproduce its sub-run exactly and adds a
  // host-timing sample.
  std::size_t repeats = 0;
  for (std::size_t i = 0;; i = (i + 1) % subruns, ++repeats) {
    const double expected = 1.2 * (runs[i].setup_s + runs[i].wall_s);
    if (repeats >= 2 && seconds_since(start) + expected > args.seconds) break;
    const RunOutcome again = run_cluster(make_config(w, subrun_seed(args.seed, i)),
                                         window, nullptr, nullptr, false);
    check_repeat(rep.checks, "repeat_bit_identical", runs[i], again);
    time_run(again);
  }

  const double rct_mean = rct_sum / tot.measured;

  rep.attempted = static_cast<std::uint64_t>(tot.requests);
  rep.failed = static_cast<std::uint64_t>(tot.unsettled);
  rep.metrics = {
      {"wall_us_per_request", median(wall_us_per_request), "us"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"rct_mean_us", rct_mean, "us"},
      {"rct_p50_us", median(p50s), "us"},
      {"rct_p99_us", median(p99s), "us"},
      {"rct_p999_us", median(p999s), "us"},
      {"completed_frac", tot.completed / tot.requests, "ratio"},
      {"msgs_per_request", tot.messages / tot.requests, "count"},
      {"bytes_per_request", tot.bytes / tot.requests, "B"},
  };
  rep.info = {{"rct_samples", tot.measured},
              {"rct_samples_per_subrun", median(window_sizes)},
              {"requests", tot.requests},
              {"subruns", static_cast<double>(subruns)},
              {"repeats", static_cast<double>(repeats)},
              {"events_per_request", tot.events / tot.requests},
              {"progress_per_request", tot.progress / tot.requests},
              {"util_mean", tot.util_weighted / static_cast<double>(subruns)},
              {"util_max", tot.util_max}};
  return rep;
}

Report measure_layers(const Workload& w, const Shape& shape, const Args& args) {
  Report rep;
  core::RunWindow window;
  window.warmup_us = shape.warmup_us;
  window.measure_us = shape.measure_us;

  // Layer counters and the ledger's wall time: the first half of the
  // sub-runs, untraced (half, to leave time for the traced run and the
  // microbenchmarks).
  const std::size_t subruns = std::max<std::size_t>(1, shape.subruns(args.seconds) / 2);
  Totals tot;
  std::vector<double> walls;
  for (std::size_t i = 0; i < subruns; ++i) {
    const RunOutcome run = run_cluster(make_config(w, subrun_seed(args.seed, i)),
                                       window, nullptr, nullptr, false);
    check_run(rep.checks, run);
    tot.add(run);
    walls.push_back(run.wall_s * 1e6 / static_cast<double>(run.result.requests_generated));
  }
  const double wall_us_per_request = median(walls);

  // The traced run and its untraced twins: A (untraced) and B (traced)
  // alternate for the overhead ratio; C records the op stream. All must
  // reproduce A exactly — the tracer and the recorder only observe.
  const core::ClusterConfig config = make_config(w, subrun_seed(args.seed, 0));
  core::RunWindow twindow;
  twindow.warmup_us = shape.trace_warmup_us;
  twindow.measure_us = shape.trace_measure_us;
  trace::Tracer::Config tcfg;
  tcfg.cap = std::size_t{1} << 24;
  tcfg.counter_stride = 16;
  std::vector<double> untraced_walls, traced_walls;
  RunOutcome reference;
  std::unique_ptr<trace::Tracer> tracer;
  for (int k = 0; k < 3; ++k) {
    RunOutcome a = run_cluster(config, twindow, nullptr, nullptr, false);
    auto t = std::make_unique<trace::Tracer>(tcfg);
    RunOutcome b = run_cluster(config, twindow, t.get(), nullptr, false);
    check_run(rep.checks, a);
    if (k == 0) reference = a;
    check_repeat(rep.checks, "repeat_bit_identical", reference, a);
    check_repeat(rep.checks, "traced_equals_untraced", reference, b);
    untraced_walls.push_back(a.wall_s);
    traced_walls.push_back(b.wall_s);
    tracer = std::move(t);
  }
  workload::ReplayTrace recorded;
  const RunOutcome c = run_cluster(config, twindow, nullptr, &recorded, true);
  check_repeat(rep.checks, "recorded_equals_untraced", reference, c);
  const core::ExperimentResult& tr = reference.result;
  const auto treq = static_cast<double>(tr.requests_generated);

  // The recorder logs one record per read key and one per write; writes go
  // to every replica, so reads + R * writes must equal the ops sent.
  double reads = 0, writes = 0;
  for (const workload::ReplayRecord& r : recorded.records)
    (r.op == workload::ReplayOp::kWrite ? writes : reads) += 1;
  const auto replication = static_cast<double>(
      std::min(std::max<std::size_t>(config.replication, 1), config.num_servers));
  rep.checks.expect("recorded_ops_match",
                    reads + replication * writes == static_cast<double>(tr.ops_generated),
                    "recorded reads " + std::to_string(reads) + " + writes " +
                        std::to_string(writes) + " vs ops " +
                        std::to_string(tr.ops_generated));
  rep.checks.expect("trace_no_drops", tracer->dropped() == 0,
                    std::to_string(tracer->dropped()) + " trace events dropped");

  const TraceDigest td = digest_trace(*tracer, config);
  rep.checks.expect("trace_ops_match",
                    td.ops.size() == tr.ops_generated && td.rct.size() == tr.requests_generated,
                    "traced op sends " + std::to_string(td.ops.size()) + " vs ops " +
                        std::to_string(tr.ops_generated));
  const double reads_per_op =
      reads + writes > 0 ? reads / (reads + replication * writes) : 1.0;

  // Per-request call counts, from the untraced sub-runs.
  const double req = tot.requests;
  const double ops_per_request = tot.ops / req;
  const double reads_per_request = ops_per_request * reads_per_op;
  const double events_per_request = tot.events / req;
  const double msgs_per_request = tot.messages / req;
  const double progress_per_request = tot.progress / req;
  const double metric_adds_per_request = 1.0 + 2.0 * ops_per_request;
  const double util_mean = tot.util_weighted / static_cast<double>(subruns);
  // Little's law: pending simulator events = arrival timers + services in
  // progress + messages in flight.
  const double in_flight_msgs = tot.messages / tot.sim_us * config.net_latency_us;
  const double heap_depth = static_cast<double>(config.num_clients) +
                            util_mean * static_cast<double>(config.num_servers) +
                            in_flight_msgs;
  const double event_rate = tot.events / tot.sim_us;
  const auto queue_depth = static_cast<std::size_t>(std::lround(td.queue_depth_mean));

  const double ns_event = bench_sim(static_cast<std::size_t>(std::lround(heap_depth)),
                                    heap_depth / event_rate, 400'000);
  const NetCost net_cost =
      bench_net(config, static_cast<std::size_t>(std::lround(in_flight_msgs)),
                static_cast<Bytes>(std::lround(tot.bytes / tot.messages)), 300'000);
  const double ns_sched = bench_sched(config, td.ops, queue_depth, 300'000);
  // Progress, LSM and replica-choice costs are measured on every workload,
  // with its own policy, op stream and selector; the ledger charges them per
  // call the workload makes (none for progress without a progress channel,
  // none for the LSM model on the synthetic store).
  const double ns_progress = bench_progress(
      config, td.ops, queue_depth, tot.progress > 0 ? tot.reranks / tot.progress : 0.0,
      300'000);
  const store::PartitionerPtr placement =
      config.ring_vnodes > 0
          ? store::make_consistent_hash_ring(config.num_servers, config.ring_vnodes)
          : store::make_modulo_partitioner(config.num_servers);
  const std::vector<StoreCall> calls =
      store_calls(recorded, *placement, static_cast<std::size_t>(replication));
  const double ns_get = bench_store_get(calls, c.key_sizes, *placement,
                                        static_cast<std::size_t>(replication),
                                        config.num_servers);
  const bool lsm = config.store_model == core::StoreModel::kLsm;
  const double ns_lsm = bench_lsm(calls, config);
  const double ns_pick = bench_select(recorded, *placement,
                                      static_cast<std::size_t>(replication), td.d_est,
                                      td.mu_est, config);
  const double ns_workload = bench_workload(config, 100'000);
  const double ns_record = bench_metrics(td.rct, 1'000'000);

  // The ledger: cost per call × calls per request, in µs per request. Each
  // network delivery is one simulator event, already charged to `sim`, so
  // `net` is charged only its cost beyond a plain event at the same depth.
  const double l_sim = ns_event * events_per_request / 1e3;
  const double l_net = (net_cost.ns_send - net_cost.ns_plain) * msgs_per_request / 1e3;
  const double l_sched =
      (ns_sched * ops_per_request + ns_progress * progress_per_request) / 1e3;
  const double l_store = (ns_get + (lsm ? ns_lsm : 0.0)) * ops_per_request / 1e3;
  const double l_select = ns_pick * reads_per_request / 1e3;
  const double l_workload = ns_workload / 1e3;
  const double l_metrics = ns_record * metric_adds_per_request / 1e3;
  const double attributed =
      l_sim + l_net + l_sched + l_store + l_select + l_workload + l_metrics;

  const double untraced_wall = median(untraced_walls);
  const double ops_k = tot.ops / 1e3;
  const double server_us = static_cast<double>(config.num_servers) * tot.sim_us;
  const double measured = std::max(1.0, tot.measured);
  const auto per_treq = [&](trace::EventKind k) {
    return static_cast<double>(kind_count(td, k)) / treq;
  };

  rep.attempted = static_cast<std::uint64_t>(tot.requests) + 5 * tr.requests_generated;
  rep.failed = static_cast<std::uint64_t>(tot.unsettled);
  rep.metrics = {
      {"sim.events_per_request", events_per_request, "count"},
      {"sim.ns_per_event", ns_event, "ns"},
      {"sim.heap_depth", heap_depth, "count"},
      {"net.progress_msgs_per_request", progress_per_request, "count"},
      {"net.ns_per_send", net_cost.ns_send, "ns"},
      {"net.ns_plain_event", net_cost.ns_plain, "ns"},
      {"net.network_share", tot.network_us / tot.rct_us, "ratio"},
      {"client.progress_per_op", tot.progress / tot.ops, "ratio"},
      {"client.retransmits_per_op", tot.retransmits / tot.ops, "ratio"},
      {"client.duplicate_responses", tot.duplicates, "count"},
      {"server.util_mean", util_mean, "ratio"},
      {"server.util_max", tot.util_max, "ratio"},
      {"server.service_us", tot.service_us / measured, "us"},
      {"rct.straggler_slack_us", tot.slack_us / measured, "us"},
      {"sched.ns_enqueue_dequeue", ns_sched, "ns"},
      {"sched.ns_progress", ns_progress, "ns"},
      {"sched.queue_depth_mean", td.queue_depth_mean, "count"},
      {"sched.deferred_per_op", tot.deferred / tot.ops, "ratio"},
      {"sched.reranks_per_op", tot.reranks / tot.ops, "ratio"},
      {"sched.aged_per_op", tot.aged / tot.ops, "ratio"},
      {"sched.runnable_wait_us", tot.runnable_us / measured, "us"},
      {"sched.deferred_wait_share", tot.deferred_us / tot.rct_us, "ratio"},
      {"store.ns_get", ns_get, "ns"},
      {"store.ns_lsm_op", ns_lsm, "ns"},
      {"store.memtable_hit_frac",
       tot.memtable_hits + tot.level_reads > 0
           ? tot.memtable_hits / (tot.memtable_hits + tot.level_reads)
           : 0.0,
       "ratio"},
      {"store.flushes_per_kop", tot.flushes / ops_k, "count"},
      {"store.compactions_per_kop", tot.compactions / ops_k, "count"},
      {"store.compaction_busy_frac", tot.compaction_busy_us / server_us, "ratio"},
      {"store.write_stall_frac", tot.write_stall_us / server_us, "ratio"},
      {"select.ns_pick", ns_pick, "ns"},
      {"workload.ns_per_request", ns_workload, "ns"},
      {"metrics.ns_per_record", ns_record, "ns"},
      {"trace.events_per_request", static_cast<double>(tracer->offered()) / treq, "count"},
      {"trace.op_send_per_request", per_treq(trace::EventKind::kOpSend), "count"},
      {"trace.server_enqueue_per_request", per_treq(trace::EventKind::kServerEnqueue), "count"},
      {"trace.op_defer_per_request", per_treq(trace::EventKind::kOpDefer), "count"},
      {"trace.op_rerank_per_request", per_treq(trace::EventKind::kOpRerank), "count"},
      {"trace.service_start_per_request", per_treq(trace::EventKind::kServiceStart), "count"},
      {"trace.response_per_request", per_treq(trace::EventKind::kResponse), "count"},
      {"trace.dropped", static_cast<double>(tracer->dropped()), "count"},
      {"trace.overhead_frac", median(traced_walls) / untraced_wall - 1.0, "ratio"},
      {"ledger.wall_us_per_request", wall_us_per_request, "us"},
      {"ledger.sim_us_per_request", l_sim, "us"},
      {"ledger.net_us_per_request", l_net, "us"},
      {"ledger.sched_us_per_request", l_sched, "us"},
      {"ledger.store_us_per_request", l_store, "us"},
      {"ledger.select_us_per_request", l_select, "us"},
      {"ledger.workload_us_per_request", l_workload, "us"},
      {"ledger.metrics_us_per_request", l_metrics, "us"},
      {"ledger.unattributed_us_per_request", wall_us_per_request - attributed, "us"},
  };
  rep.info = {{"requests", tot.requests},
              {"traced_requests", treq},
              {"trace_events", static_cast<double>(tracer->offered())},
              {"recorded_ops", static_cast<double>(recorded.records.size())},
              {"ops_per_request", ops_per_request},
              {"reads_per_request", reads_per_request},
              {"in_flight_msgs", in_flight_msgs}};
  return rep;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "dasperf: %s\nusage: dasperf --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--scale") {
        args.scale = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad flag value");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) return usage("unknown workload");
  if (args.trace != 0 && args.trace != 1) return usage("--trace must be 0 or 1");
  if (args.scale != "full" && args.scale != "smoke") return usage("unknown scale");

  try {
    const Shape shape = args.scale == "smoke" ? kSmokeShape : workload->shape;
    const Report rep = args.trace == 0
                           ? measure_end_to_end(*workload, shape, args, start)
                           : measure_layers(*workload, shape, args);
    print_json(workload->name, args.seed, args.trace, rep.checks, rep.attempted,
               rep.failed, rep.metrics, rep.info);
    return rep.checks.all_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dasperf: %s\n", e.what());
    return 1;
  }
}
