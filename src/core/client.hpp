// Simulated front-end client.
//
// Generates multiget requests open-loop, fans each out into per-server
// operations tagged with the scheduling metadata (DAS completion estimates,
// Rein bottleneck sizes, SRPT totals, EDF deadlines), tracks responses, and
// emits sibling-progress updates so servers can re-rank queued operations.
// The client's per-server delay/speed view is learned purely from response
// piggybacks — the "distributed" half of the paper's design.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/server.hpp"
#include "sched/op_context.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "trace/rct_breakdown.hpp"
#include "trace/tracer.hpp"
#include "workload/arrival.hpp"
#include "workload/mix.hpp"
#include "workload/multiget.hpp"
#include "workload/replay.hpp"

namespace das::core {

class Client {
 public:
  struct Params {
    ClientId id = 0;
    std::size_t num_servers = 0;
    /// Total clients in the cluster; replay tenants shard trace records
    /// across clients by index stride (client c takes records i ≡ c mod N).
    std::size_t num_clients = 1;
    /// Per-op demand model (must match the servers' service model).
    double per_op_overhead_us = 0;
    double service_bytes_per_us = 1;
    /// Learn per-server d/mu estimates from piggybacks; false = static view
    /// (zero delay, nominal speed) — the client half of the DAS-NA ablation.
    bool adaptive = true;
    /// Send sibling-progress updates to servers holding pending ops.
    bool progress_updates = true;
    /// Suppress a progress update when the completion estimate moved by less
    /// than this fraction of the remaining horizon (overhead control).
    double progress_threshold = 0.05;
    double ewma_alpha = 0.3;
    /// Round-trip allowance added to completion estimates at tag time.
    Duration est_rtt_us = 10.0;
    Duration edf_slo_us = 10.0 * kMillisecond;
    /// Read-one replication: candidate replicas per key and how to choose.
    std::size_t replication = 1;
    ReplicaSelection replica_selection = ReplicaSelection::kPrimary;
    /// End-to-end recovery from message loss: an operation unanswered for
    /// this long is retransmitted (same op id; duplicate service is
    /// harmless for reads, duplicate responses are discarded). 0 disables
    /// retransmission. Backs off exponentially (x2 per attempt) with
    /// deterministic ±20% jitter so synchronized losses do not yield
    /// synchronized retry storms.
    Duration retry_timeout_us = 0;
    /// Upper bound on the backed-off timeout (0 = uncapped): without a cap,
    /// an op unlucky through a long outage ends up probing a recovered
    /// server minutes apart.
    Duration retry_backoff_max_us = 0;
    /// Give-up bound: after this many send attempts the op is declared
    /// FAILED (never silently lost — it leaves the request accounted as
    /// failed). 0 retries forever, which is only safe when every outage
    /// eventually heals.
    std::uint32_t retry_max_attempts = 0;
    /// Failure detection: a server with this many consecutive retry
    /// timeouts and no intervening response is SUSPECTED — retries of reads
    /// fail over to live replicas and replica ranking avoids it until it
    /// answers again. 0 disables suspicion.
    std::uint32_t suspicion_rto_threshold = 3;
    /// Hedged reads: an operation unanswered after this delay is duplicated
    /// to a different replica (first response wins, the loser is
    /// discarded). Requires replication >= 2; 0 disables. Fires once.
    Duration hedge_delay_us = 0;
    /// Fraction of requests that are single-key PUTs fanned out to ALL
    /// replicas (write-all); the rest are multigets. 0 = read-only.
    /// Applies to tenants that do not carry their own operation mix.
    double write_fraction = 0;
    /// Sizes of written values; nullptr falls back to existing key size.
    RealDistPtr write_size_bytes;
    /// Overload protection (deadlines, admission control, BUSY handling).
    /// All defaults off: the client is bit-identical to pre-layer builds.
    overload::OverloadConfig overload;
  };

  /// One tenant's traffic source as seen by this client. A synthetic tenant
  /// has a generator plus an arrival process; a replay tenant has a trace
  /// (records sharded across clients by index stride) and neither.
  struct TenantStream {
    const workload::MultigetGenerator* generator = nullptr;
    workload::ArrivalPtr arrivals;
    /// has_mix=false inherits the legacy Params::write_fraction behaviour.
    bool has_mix = false;
    workload::OpMix mix{};
    /// Write sizes for this tenant; nullptr falls back to the cluster-wide
    /// Params::write_size_bytes (then to the key's existing size).
    RealDistPtr write_size_bytes;
    const workload::ReplayTrace* replay = nullptr;
  };

  /// One op of a dispatch fan-out and where it goes.
  struct OpSend {
    ServerId server = 0;
    sched::OpContext ctx;
  };
  /// One update of a progress fan-out and where it goes.
  struct ProgressSend {
    ServerId server = 0;
    sched::ProgressUpdate update;
  };
  /// Hands the network every op the client sends at one instant: all ops of
  /// a new request, or the single op of a retransmission or hedge.
  using SendOps = std::function<void(std::span<const OpSend>)>;
  /// Hands the network one progress fan-out: an update of request `rid` for
  /// each server still holding its pending ops.
  using SendProgress =
      std::function<void(RequestId, std::span<const ProgressSend>)>;

  /// Multi-tenant form: one TenantStream per tenant. `key_sizes` is the
  /// shared size catalogue; writes update it in place (the writer knows the
  /// size it wrote; other clients' estimates converge on their next access).
  Client(sim::Simulator& sim, Params params, Rng rng,
         std::vector<TenantStream> tenants, const store::Partitioner& partitioner,
         std::vector<Bytes>& key_sizes, Metrics& metrics, SendOps send_ops,
         SendProgress send_progress);

  /// Single-stream form (the legacy workload): wraps `generator` + `arrivals`
  /// into one tenant. Bit-identical to pre-tenant builds.
  Client(sim::Simulator& sim, Params params, Rng rng,
         const workload::MultigetGenerator& generator,
         workload::ArrivalPtr arrivals, const store::Partitioner& partitioner,
         std::vector<Bytes>& key_sizes, Metrics& metrics, SendOps send_ops,
         SendProgress send_progress);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Begins generating requests; arrivals strictly before `horizon`.
  void start(SimTime horizon);

  /// A server response arrived (cluster delivers through the network).
  void on_response(const OpResponse& resp);

  std::uint64_t requests_generated() const { return requests_generated_; }
  std::uint64_t requests_completed() const { return requests_completed_; }
  std::uint64_t requests_failed() const { return requests_failed_; }
  /// Requests shed by the overload layer (admission refusal or BUSY).
  std::uint64_t requests_shed() const { return requests_shed_; }
  /// Subset of requests_shed() refused at admission (no op ever sent).
  std::uint64_t requests_shed_admission() const {
    return requests_shed_admission_;
  }
  /// Requests whose end-to-end deadline passed before the last response.
  std::uint64_t requests_expired() const { return requests_expired_; }
  /// Current AIMD admit probability for tenant `t` (1.0 with admission off).
  double admission_rate(std::size_t t) const {
    return admission_ != nullptr ? admission_->rate(t) : 1.0;
  }
  /// Per-tenant slices of the outcome counters above; the sums over tenants
  /// equal the totals exactly (checked by Cluster::run).
  std::uint64_t tenant_requests_generated(std::size_t t) const {
    return tenant_generated_.at(t);
  }
  std::uint64_t tenant_requests_completed(std::size_t t) const {
    return tenant_completed_.at(t);
  }
  std::uint64_t tenant_requests_failed(std::size_t t) const {
    return tenant_failed_.at(t);
  }
  std::uint64_t tenant_requests_shed(std::size_t t) const {
    return tenant_shed_.at(t);
  }
  std::uint64_t tenant_requests_expired(std::size_t t) const {
    return tenant_expired_.at(t);
  }
  std::size_t tenant_count() const { return tenants_.size(); }
  std::uint64_t requests_completed_after_failover() const {
    return requests_completed_failover_;
  }
  std::uint64_t ops_generated() const { return ops_generated_; }
  std::uint64_t progress_sent() const { return progress_sent_; }
  std::uint64_t ops_retransmitted() const { return ops_retransmitted_; }
  std::uint64_t duplicate_responses() const { return duplicate_responses_; }
  std::uint64_t ops_hedged() const { return ops_hedged_; }
  std::uint64_t ops_failed_over() const { return ops_failed_over_; }
  std::uint64_t ops_abandoned() const { return ops_abandoned_; }
  std::uint64_t suspicions_raised() const { return suspicions_raised_; }
  std::size_t in_flight() const { return pending_.size(); }
  bool suspects(ServerId s) const { return suspected_[s] != 0; }

  /// Current learned view (tests).
  double delay_estimate(ServerId s) const { return d_est_[s]; }
  double speed_estimate(ServerId s) const { return mu_est_[s]; }

  /// Attaches a lifecycle tracer (nullptr detaches). Purely observational.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  /// Attaches the per-request RCT-breakdown sink (nullptr detaches).
  void set_breakdown_collector(trace::BreakdownCollector* collector) {
    breakdown_ = collector;
  }
  /// Attaches a replay-trace sink that records every generated operation
  /// (one record per read key, one per write) for later replay; nullptr
  /// detaches. Purely observational.
  void set_op_recorder(workload::ReplayTrace* sink) { recorder_ = sink; }

 private:
  struct PendingOp {
    OperationId op_id = 0;
    ServerId server = 0;
    KeyId key = 0;
    double demand_us = 0;
    bool done = false;
    bool is_write = false;
    sim::EventHandle retry_timer;
    sim::EventHandle hedge_timer;
    std::uint32_t attempts = 1;
    bool hedged = false;
    /// When the (first) response was delivered; feeds straggler slack.
    SimTime delivered_at = 0;
    /// The server answered BUSY at least once (overload layer). Re-attributes
    /// a later retry-budget exhaustion to shed instead of failed.
    bool busy_rejected = false;
    /// Server-side timing echo from that response.
    trace::OpServiceTiming timing;
  };
  struct PendingRequest {
    SimTime arrival = 0;
    /// Index of the tenant that generated the request (0 in legacy mode).
    std::uint32_t tenant = 0;
    std::vector<PendingOp> ops;
    /// The ops' messages as first sent, index-aligned with `ops`; kept only
    /// when a retransmission or a hedge may send them again.
    std::vector<sched::OpContext> sent;
    std::size_t remaining = 0;
    double last_sent_critical = 0;
    double last_sent_total = 0;
    /// At least one op was redirected to another replica by suspicion.
    bool failed_over = false;
    /// Ops abandoned after exhausting the retry budget; > 0 makes the whole
    /// request count as failed instead of completed.
    std::size_t failed_ops = 0;
    /// Ops terminally shed by the overload layer (BUSY with no retry budget
    /// left, or BUSY with retries disabled); > 0 marks the request SHED,
    /// taking precedence over failed.
    std::size_t shed_ops = 0;
    /// Absolute end-to-end deadline (arrival + budget); kTimeInfinity when
    /// deadlines are off. Carried on every op's wire context.
    SimTime expiry = kTimeInfinity;
    /// Fires expire_request at `expiry`; cancelled on any earlier settle.
    sim::EventHandle deadline_timer;
  };

  /// What one planned operation looks like before tagging/sending.
  struct PlannedOp {
    KeyId key = 0;
    ServerId server = 0;
    double demand = 0;
    bool is_write = false;
    Bytes write_size = 0;
  };

  /// One distinct server of a request, aggregated over its ops there: op
  /// count and demand sum (Rein bottleneck tags) and the max full
  /// completion estimate (DAS deferral bounds).
  struct ServerAgg {
    ServerId server = 0;
    std::uint32_t ops = 0;
    double demand = 0;
    SimTime max_full_estimate = 0;
  };

  /// The two largest max_full_estimate values over distinct servers, from a
  /// baseline of 0. A destination's deferral bound — the max over the OTHER
  /// servers — is the runner-up for the server holding the maximum and the
  /// maximum for every other server; ties leave both equal.
  struct TopTwo {
    SimTime first = 0;
    SimTime second = 0;
    ServerId first_server = kInvalidServer;
    explicit TopTwo(const std::vector<ServerAgg>& aggs);
    SimTime excluding(ServerId server) const {
      return server == first_server ? second : first;
    }
  };

  /// Empties the per-server scratch (tagging and progress fan-out share it).
  void reset_server_scratch();
  /// The scratch aggregate of `server`, appended on first touch so the
  /// scratch lists servers in first-touch order.
  ServerAgg& server_agg(ServerId server) {
    const std::uint32_t index = scratch_index_[server];
    return index != kUntouched ? server_scratch_[index] : touch_server(server);
  }
  /// server_agg's first touch of `server`: appends its aggregate.
  ServerAgg& touch_server(ServerId server);

  void schedule_next_arrival(std::size_t tenant, SimTime horizon);
  void generate_request(std::size_t tenant);
  /// Chain-schedules this client's next assigned replay record (>= `index`,
  /// stepping by num_clients) of tenant `tenant`.
  void schedule_replay(std::size_t tenant, std::size_t index, SimTime horizon);
  void generate_replay_request(std::size_t tenant, std::size_t index);
  /// Tags, accounts and sends a planned request (shared by the synthetic and
  /// replay paths).
  void dispatch_plan(std::size_t tenant, const std::vector<PlannedOp>& plan);
  /// The RNG stream backing tenant `t`'s workload draws. Tenant 0 IS the
  /// client stream (bit-identity with single-tenant builds); later tenants
  /// fork from a copy at construction.
  Rng& tenant_rng(std::size_t t) {
    return t == 0 ? rng_ : extra_tenant_rngs_[t - 1];
  }
  double op_demand_us(KeyId key) const;
  /// Target replica for `key` per the configured selection strategy.
  ServerId pick_server(KeyId key, double demand);
  /// Snapshot of the learned per-server state for the selector layer.
  select::LearnedView learned_view() const;
  /// Intrinsic service-time estimate of one op (demand over learned speed).
  double service_estimate_us(ServerId server, double demand) const;
  /// Full completion estimate of one op if sent now (rtt + queueing +
  /// service), given its service estimate.
  SimTime full_estimate(SimTime now, ServerId server, double service_us) const;

  sim::Simulator& sim_;
  Params params_;
  Rng rng_;
  std::vector<TenantStream> tenants_;
  const store::Partitioner& partitioner_;
  std::vector<Bytes>& key_sizes_;
  Metrics& metrics_;
  SendOps send_ops_;
  SendProgress send_progress_;
  trace::Tracer* tracer_ = nullptr;
  trace::BreakdownCollector* breakdown_ = nullptr;
  workload::ReplayTrace* recorder_ = nullptr;

  std::vector<double> d_est_;
  std::vector<double> mu_est_;
  /// Per-server scratch reused by every request and response, so tagging
  /// and progress fan-out allocate nothing: the distinct servers touched, in
  /// first-touch order, and per server its index there (kUntouched if none).
  static constexpr std::uint32_t kUntouched = 0xFFFFFFFFu;
  std::vector<ServerAgg> server_scratch_;
  std::vector<std::uint32_t> scratch_index_;
  /// Planning scratch, likewise reused: the ops of the request being built
  /// and the replica set of the key being placed.
  std::vector<PlannedOp> plan_scratch_;
  std::vector<ServerId> replica_scratch_;
  /// Outgoing fan-outs, likewise reused.
  std::vector<OpSend> op_sends_;
  std::vector<ProgressSend> progress_sends_;
  /// The replica-selection strategy (src/select); shared by fresh picks,
  /// hedges and failovers so their ranking logic cannot diverge again.
  std::unique_ptr<select::ReplicaSelector> selector_;
  // Lookup-only table (never iterated): FlatMap keeps it deterministic
  // across standard libraries and off the per-response allocation path.
  // Responses find their request by the id they echo, then their op by
  // op_index().
  FlatMap<RequestId, PendingRequest> pending_;

  /// Jitter stream for retry backoff, forked off a COPY of the client RNG at
  /// construction so the workload draws stay bit-identical to jitter-free
  /// builds; only armed retries consume from it.
  Rng retry_rng_;
  /// Admission coin flips, forked off a COPY of the client RNG likewise;
  /// only drawn when admission control is on (exactly once per request).
  Rng admission_rng_;
  /// Per-tenant AIMD admission throttle; nullptr when admission is off.
  std::unique_ptr<overload::AdmissionController> admission_;
  /// Workload streams for tenants 1..N-1, each forked off a COPY of the
  /// client RNG with a tenant-distinct tag. Tenant 0 uses rng_ directly so a
  /// single-tenant run draws exactly like a pre-tenant build.
  std::vector<Rng> extra_tenant_rngs_;
  /// Consecutive unanswered retry timeouts per server and the derived
  /// suspicion flags (failure detection).
  std::vector<std::uint32_t> rto_strikes_;
  std::vector<char> suspected_;

  std::uint64_t next_request_seq_ = 0;
  std::uint64_t next_op_seq_ = 0;
  std::uint64_t requests_generated_ = 0;
  std::uint64_t requests_completed_ = 0;
  std::uint64_t requests_failed_ = 0;
  std::uint64_t requests_shed_ = 0;
  std::uint64_t requests_shed_admission_ = 0;
  std::uint64_t requests_expired_ = 0;
  /// Per-tenant slices of the request counters (always sized tenant_count()).
  std::vector<std::uint64_t> tenant_generated_;
  std::vector<std::uint64_t> tenant_completed_;
  std::vector<std::uint64_t> tenant_failed_;
  std::vector<std::uint64_t> tenant_shed_;
  std::vector<std::uint64_t> tenant_expired_;
  std::uint64_t requests_completed_failover_ = 0;
  std::uint64_t ops_generated_ = 0;
  std::uint64_t progress_sent_ = 0;
  std::uint64_t ops_retransmitted_ = 0;
  std::uint64_t duplicate_responses_ = 0;
  std::uint64_t ops_hedged_ = 0;
  std::uint64_t ops_failed_over_ = 0;
  std::uint64_t ops_abandoned_ = 0;
  std::uint64_t suspicions_raised_ = 0;

  /// Index of op `op_id` in `req.ops`: ops of a request take consecutive
  /// ids, so this is a subtraction, not a search.
  static std::size_t op_index(const PendingRequest& req, OperationId op_id) {
    DAS_CHECK(!req.ops.empty());
    const OperationId index = op_id - req.ops.front().op_id;
    DAS_CHECK_MSG(index < req.ops.size(), "op id outside its request");
    return static_cast<std::size_t>(index);
  }
  /// Sends one op on its own (a retransmission or a hedge).
  void resend(ServerId server, const sched::OpContext& ctx);
  /// Arms (or re-arms) the retransmission timer for an op of `rid`.
  void arm_retry(RequestId rid, PendingOp& op);
  /// Arms the one-shot hedge timer for an op of `rid`.
  void arm_hedge(RequestId rid, PendingOp& op);
  /// Failure detection: one more consecutive timeout against `server`.
  void note_rto(ServerId server);
  /// Redirects a read retry to the best unsuspected replica, if any.
  void maybe_fail_over(PendingRequest& req, PendingOp& op);
  /// Retry budget exhausted: the op is declared failed (or shed, if its last
  /// word from the server was BUSY); finalizes once no op remains in flight.
  void abandon_op(RequestId rid, PendingOp& op);
  /// A BUSY response arrived for outstanding op `op` of `req` (id `rid`):
  /// feed the admission throttle and either lean on the armed retry timer or
  /// shed the op terminally.
  void on_shed_response(RequestId rid, PendingRequest& req, PendingOp& op);
  /// Terminally sheds one op (mirrors abandon_op with shed attribution).
  void shed_op(RequestId rid, PendingOp& op);
  /// remaining == 0 with shed_ops or failed_ops: settles the request as
  /// SHED (precedence) or FAILED and erases it.
  void finalize_degraded(RequestId rid);
  /// Deadline timer callback: fails the whole request as EXPIRED, tearing
  /// down every in-flight op (late responses discard as duplicates).
  void expire_request(RequestId rid);
};

}  // namespace das::core
