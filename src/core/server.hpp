// Simulated store server: storage engine + operation scheduler + service
// loop with time-varying speed and an adaptive service-rate estimator.
#pragma once

#include <functional>
#include <memory>

#include "common/invariant.hpp"
#include "common/types.hpp"
#include "core/metrics.hpp"
#include "overload/overload.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "store/log_engine.hpp"
#include "store/lsm_model.hpp"
#include "store/storage_engine.hpp"
#include "trace/rct_breakdown.hpp"
#include "trace/tracer.hpp"
#include "workload/rate_function.hpp"

namespace das::core {

/// Outcome of an operation, as reported to the client. Non-OK statuses are
/// explicit overload signals — unlike a silent drop they arrive promptly and
/// still piggyback d_hat/mu_hat, so shedding FEEDS the learned view.
enum class OpStatus : std::uint8_t {
  kOk = 0,
  /// Shed by the server's QueueGuard: queue at cap (reject-new) or sojourn
  /// threshold exceeded (sojourn-drop). The op was not served.
  kBusy = 1,
  /// Dropped at dequeue because the request's end-to-end deadline had
  /// already passed — serving it would have been pure waste.
  kExpired = 2,
};

/// What a server sends back to the client when an operation completes.
/// `d_hat_us` / `mu_hat` are the piggybacked adaptive state: the advertised
/// queueing-delay estimate and the observed service speed (1.0 = nominal).
struct OpResponse {
  OperationId op_id = 0;
  RequestId request_id = 0;
  ClientId client = 0;
  ServerId server = 0;
  KeyId key = 0;
  Bytes value_size = 0;
  bool hit = false;
  bool is_write = false;
  SimTime completed_at = 0;
  double d_hat_us = 0;
  double mu_hat = 1.0;
  /// kOk unless the op was shed by the overload layer (in which case `hit`
  /// is false, no value travels, and the wire adds one status byte).
  OpStatus status = OpStatus::kOk;
  /// Server-side timing echo for the RCT breakdown. Out of band: carried on
  /// the simulated message object but EXCLUDED from the wire-size model
  /// (net/wire.hpp), so enabling the breakdown never changes net_bytes.
  trace::OpServiceTiming timing;
};

class Server : public Auditable {
 public:
  /// Crash lifecycle. kRecovering behaves like kUp but marks the re-learning
  /// phase right after a restart: the estimator was warm-restarted and holds
  /// until a handful of completions have re-trained it.
  enum class State { kUp, kCrashed, kRecovering };

  struct Params {
    ServerId id = 0;
    /// Static speed multiplier (0.5 = half-speed straggler).
    double speed_factor = 1.0;
    /// Optional time-varying multiplier on top of speed_factor.
    workload::RatePtr speed_profile;  // nullptr = constant 1.0
    /// EWMA smoothing for the service-speed estimate.
    double speed_alpha = 0.1;
    /// Preempt-resume service: an arriving operation that the scheduler's
    /// preempts() hook prefers interrupts the one in service, whose
    /// remaining demand is requeued. An oracle-style upper bound; real
    /// stores (and the paper) serve operations to completion.
    bool preemptive = false;
    /// Storage backend: hash-table engine (default) or log-structured.
    bool log_structured_storage = false;
    /// Storage-aware service-time model. nullptr = synthetic mode: every op
    /// costs its client-tagged demand and storage never dents capacity.
    /// Owning a provider makes Params move-only.
    store::ServiceTimeProviderPtr service_model;
    /// Overload protection (bounded queue / deadline drops). All defaults
    /// off: the guard never fires and the server is bit-identical to
    /// pre-layer builds.
    overload::OverloadConfig overload;
  };

  Server(sim::Simulator& sim, Params params, sched::SchedulerPtr scheduler,
         Metrics& metrics);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Response delivery hook; the cluster routes it through the network.
  void set_response_handler(std::function<void(const OpResponse&)> handler);

  /// Preloads a key (cluster initialisation, before time starts).
  void populate(KeyId key, Bytes size);
  /// Presizes the store for `keys` keys ahead of populating them.
  void reserve_storage(std::size_t keys) { storage_->reserve(keys); }

  /// An operation message arrived from the network.
  void receive_op(const sched::OpContext& op);

  /// A client-side progress message arrived: a sibling of `request`
  /// completed and the scheduling estimates moved.
  void receive_progress(RequestId request, const sched::ProgressUpdate& update);

  /// Fail-stop crash: cancels the in-service op, drains and drops the whole
  /// queue, and stops accepting work until recover(). Lost ops are counted
  /// in ops_dropped() — end-to-end recovery is the clients' responsibility.
  void crash();
  /// A crashed server restarts empty. The speed estimate warm-restarts at
  /// the static factor; the time-varying component is re-learned from the
  /// next completions (State::kRecovering until then).
  void recover();
  /// Gray-failure multiplier from the fault plan (1.0 = healthy). Takes
  /// effect at the next dispatch; the in-service op keeps its sampled speed.
  void set_fault_slowdown(double factor);

  State state() const { return state_; }
  bool crashed() const { return state_ == State::kCrashed; }

  /// Advertised queueing-delay estimate: backlog over estimated speed.
  double d_hat_us() const;
  double mu_hat() const { return mu_hat_; }
  ServerId id() const { return params_.id; }
  bool busy() const { return busy_; }
  std::size_t queue_length() const { return scheduler_->size(); }

  const sched::Scheduler& scheduler() const { return *scheduler_; }
  const store::KvStore& storage() const { return *storage_; }
  /// The storage service-time model, or nullptr in synthetic mode.
  const store::ServiceTimeProvider* service_model() const {
    return service_model_.get();
  }
  /// Closes the model's open compaction/stall windows in its stats at end of
  /// run (no-op in synthetic mode). Idempotent.
  void finalize_store();

  /// Attaches a lifecycle tracer (nullptr detaches); forwarded to the
  /// scheduler. Purely observational — never changes scheduling decisions.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    scheduler_->set_tracer(tracer, params_.id);
    // Transition recording costs nothing when no tracer is attached.
    if (service_model_ != nullptr) {
      service_model_->set_record_transitions(tracer != nullptr);
    }
  }

  /// Busy-time accounting clipped to [begin, end) for utilisation metrics.
  void set_utilization_window(SimTime begin, SimTime end);
  double busy_time_in_window() const { return busy_in_window_; }

  std::uint64_t ops_completed() const { return ops_completed_; }
  std::uint64_t ops_received() const { return ops_received_; }
  std::uint64_t preemptions() const { return preemptions_; }
  std::uint64_t ops_dropped() const { return ops_dropped_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t recoveries() const { return recoveries_; }

  /// Overload-layer shed counters (all zero with the layer off).
  const overload::QueueGuard& queue_guard() const { return guard_; }
  std::uint64_t ops_rejected_busy() const { return guard_.rejected_busy(); }
  std::uint64_t ops_shed_sojourn() const { return guard_.dropped_sojourn(); }
  std::uint64_t ops_expired() const { return guard_.expired(); }
  /// Service time (µs) spent on ops that later turned out to be expired at
  /// completion — counted as wasted even though the op was served, because
  /// no deadline check runs mid-service.
  Duration wasted_service_us() const { return wasted_service_us_; }

  /// Request conservation (every received op is queued, in service,
  /// completed, or dropped by a crash), nonnegative remaining service
  /// demand, a live completion event whenever the server is busy, an empty
  /// idle queue while crashed, and the scheduler's own invariants.
  void check_invariants() const override;

 private:
  /// THE one effective-speed composition path: static factor × speed profile
  /// × fault slowdown × storage capacity factor, every factor checked
  /// positive. Non-const because sampling the storage factor advances the
  /// store model's lazy clock.
  double effective_speed(SimTime now);
  /// Builds the store-model cost query for `op`; a read's size comes from
  /// the server's own storage engine, not the client's estimate.
  store::OpCostQuery cost_query(const sched::OpContext& op) const;
  /// Remaining scheduler-visible demand of the in-service op given its
  /// unserved base cost. Preserves the exact legacy subtraction in synthetic
  /// mode; scales the demand tag proportionally under a store model.
  double remaining_demand(double remaining_base_us) const;
  /// Forwards store-model transitions (compaction/stall spans, flushes) to
  /// the tracer. No-op when untraced.
  void emit_store_transitions();
  /// Answers a shed op with a BUSY/EXPIRED response — still piggybacking
  /// d_hat/mu_hat, so shedding feeds the client's learned view.
  void respond_shed(const sched::OpContext& op, OpStatus status);
  void maybe_start();
  void complete_current();
  /// Requeues the in-service op with its remaining demand.
  void preempt_current();
  void note_busy_interval(SimTime begin, SimTime end);

  sim::Simulator& sim_;
  Params params_;
  sched::SchedulerPtr scheduler_;
  Metrics& metrics_;
  /// Overload protection: accept/shed decisions and the shed counters.
  overload::QueueGuard guard_;
  std::unique_ptr<store::KvStore> storage_;
  /// Moved out of Params at construction; nullptr in synthetic mode.
  store::ServiceTimeProviderPtr service_model_;
  std::function<void(const OpResponse&)> respond_;
  trace::Tracer* tracer_ = nullptr;
  /// Scratch buffer for draining store-model transitions while traced.
  std::vector<store::StoreTransition> store_transitions_;

  bool busy_ = false;
  sched::OpContext current_op_{};
  SimTime current_started_ = 0;
  double current_speed_ = 1.0;
  /// Base cost (µs at nominal speed) of the in-service op: the store model's
  /// price when one is attached, the client-tagged demand otherwise.
  double current_base_cost_us_ = 0;
  /// Storage capacity factor sampled by the last effective_speed() call;
  /// kept for const invariant auditing. Exactly 1.0 in synthetic mode.
  double storage_factor_ = 1.0;
  sim::EventHandle completion_event_;
  double mu_hat_ = 1.0;
  State state_ = State::kUp;
  /// Fault-plan gray-failure multiplier; exactly 1.0 outside slow windows so
  /// fault-free runs never touch a faulted code path.
  double fault_slowdown_ = 1.0;
  /// Completions left before a recovering server counts as kUp again.
  std::uint32_t recovery_ops_left_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t ops_received_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t ops_dropped_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t recoveries_ = 0;
  /// Service time spent on ops that completed past their expiry.
  Duration wasted_service_us_ = 0;

  SimTime window_begin_ = 0;
  SimTime window_end_ = kTimeInfinity;
  double busy_in_window_ = 0;
};

}  // namespace das::core
