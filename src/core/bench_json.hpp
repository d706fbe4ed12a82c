// Structured JSON results emitter.
//
// Every bench (and dassim --sweep) can persist its sweep as
// BENCH_<experiment>.json so the results are machine-readable instead
// of living only in printed tables. Schema (schema_version 6):
//
//   {
//     "schema_version": 6,
//     "experiment": "E1_load_mean",
//     "points": [
//       {
//         "point": "load=0.7", "policy": "das", "seed": 20260705,
//         "requests_measured": 57344,
//         "mean_rct_us": ..., "p50_us": ..., "p95_us": ..., "p99_us": ...,
//         "p999_us": ..., "max_us": ...,
//         "mean_util": ..., "max_util": ...,
//         "ops_deferred": ..., "ops_resumed": ..., "ops_aged": ...,
//         "reranks_applied": ...,    // mechanism-activation counters
//         "breakdown": {             // exact mean RCT decomposition
//           "requests": ..., "mean_rct_us": ..., "network_us": ...,
//           "runnable_wait_us": ..., "deferred_wait_us": ...,
//           "service_us": ..., "straggler_slack_us": ...
//         },
//         "degradation": {           // fault-layer accounting; all zeros /
//           "availability": ...,     // availability 1.0 for fault-free runs
//           "requests_completed": ..., "requests_failed": ...,
//           "requests_completed_after_failover": ...,
//           "ops_failed_over": ..., "ops_abandoned": ...,
//           "suspicions_raised": ..., "ops_dropped_crashed": ...,
//           "server_crashes": ..., "server_recoveries": ...,
//           "messages_dropped_partition": ...
//         },
//         "overload": {              // overload-layer accounting; all zeros
//           "goodput_rps": ...,      // (and goodput == throughput) with the
//           "throughput_rps": ...,   // layer off
//           "requests_shed": ..., "requests_shed_admission": ...,
//           "requests_expired": ..., "requests_shed_measured": ...,
//           "requests_expired_measured": ..., "ops_rejected_busy": ...,
//           "ops_shed_sojourn": ..., "ops_expired_dropped": ...,
//           "wasted_service_us": ...
//         },
//         "storage": { ... },        // store-model counters (all zero when
//                                    // the synthetic model prices service)
//         "jain_fairness": ...,      // 1.0 for single-tenant runs
//         "tenants": [               // one object per configured tenant;
//           {                        // [] for single-tenant (legacy) runs
//             "name": "t0", "share": 1.0,
//             "requests_generated": ..., "requests_completed": ...,
//             "requests_failed": ..., "requests_measured": ...,
//             "requests_failed_measured": ...,
//             "requests_shed": ..., "requests_expired": ...,
//             "requests_shed_measured": ..., "requests_expired_measured": ...,
//             "mean_rct_us": ..., "p50_us": ..., "p95_us": ...,
//             "p99_us": ..., "p999_us": ..., "max_us": ...,
//             "goodput_share": ...
//           }, ...
//         ],
//         "gain_vs_fcfs_pct": ...,   // null when the point has no FCFS row
//         "wall_seconds": ...        // NOT deterministic; everything else is
//       }, ...
//     ]
//   }
//
// schema_version history: 6 added the always-present "overload" object
// (goodput/throughput, shed/expired accounting) and the per-tenant
// shed/expired/goodput_share fields; 5 added "jain_fairness" and the
// per-tenant "tenants" array (workload registry / multi-tenancy); 4 added the
// always-present "storage" object (store-model counters); 3 added the
// per-point "degradation" object (fault plans, failover and
// graceful-degradation accounting); 2 added the mechanism counters and the
// per-point "breakdown" object (PR 3); 1 was the initial shape.
//
// Points appear in registration order; all fields except wall_seconds are
// bit-reproducible for a fixed seed, so diffs of two emissions reveal real
// behaviour changes. The writer is dependency-free and always emits valid
// JSON (doubles are printed with round-trip precision; non-finite values,
// which JSON cannot represent, become null).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace das::core {

/// Renders the rows of one experiment as a JSON document (trailing newline
/// included). Rows whose experiment label differs are skipped, so a mixed
/// outcome list can be split into one file per experiment.
void render_bench_json(std::ostream& os, const std::string& experiment,
                       const std::vector<SweepOutcome>& rows);

/// render_bench_json to a string.
std::string bench_json_string(const std::string& experiment,
                              const std::vector<SweepOutcome>& rows);

/// Writes BENCH_<experiment>.json-style output to `path` (DAS_CHECK on I/O
/// failure).
void write_bench_json(const std::string& path, const std::string& experiment,
                      const std::vector<SweepOutcome>& rows);

}  // namespace das::core
