#include "core/config.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "workload/spec.hpp"

namespace das::core {

const char* to_string(StoreModel model) {
  switch (model) {
    case StoreModel::kSynthetic: return "synthetic";
    case StoreModel::kLsm: return "lsm";
  }
  return "synthetic";
}

bool store_model_from_string(std::string_view token, StoreModel& out) {
  if (token == "synthetic") {
    out = StoreModel::kSynthetic;
    return true;
  }
  if (token == "lsm") {
    out = StoreModel::kLsm;
    return true;
  }
  return false;
}

void ClusterConfig::validate() const {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("ClusterConfig: " + what);
  };
  if (num_servers < 1) reject("num_servers must be >= 1");
  if (num_clients < 1) reject("num_clients must be >= 1");
  if (keys_per_server < 1) reject("keys_per_server must be >= 1");
  if (log_structured_storage) {
    reject(
        "log_structured_storage is no longer supported — the log-structured "
        "engine was removed; servers read the cluster's replica table");
  }
  if (msg_loss_probability < 0 || msg_loss_probability >= 1) {
    reject("msg_loss_probability must be in [0, 1)");
  }
  if (msg_loss_probability > 0 && retry_timeout_us <= 0) {
    reject(
        "msg_loss_probability > 0 requires retry_timeout_us > 0 — without "
        "retransmission a lost message strands its request forever");
  }
  if (fault_plan.loses_work() && retry_timeout_us <= 0) {
    reject(
        "fault_plan contains a crash/partition/lossburst but retry_timeout_us "
        "== 0 — dropped operations would never be retransmitted and their "
        "requests never finish");
  }
  if (fault_plan.has_unrecovered_failure() && retry_max_attempts == 0) {
    reject(
        "fault_plan leaves a server crashed or a link partitioned at the end "
        "but retry_max_attempts == 0 — unbounded retries against a "
        "permanently dead target never terminate; set retry_max_attempts so "
        "the client can give up and account the request as failed");
  }
  if (hedge_delay_us > 0 && replication < 2) {
    reject(
        "hedge_delay_us > 0 requires replication >= 2 — hedging needs a "
        "second replica to duplicate the read to");
  }
  if (retry_backoff_max_us > 0 && retry_timeout_us <= 0) {
    reject("retry_backoff_max_us is set but retry_timeout_us == 0 disables "
           "retransmission entirely");
  }
  if (retry_backoff_max_us > 0 && retry_backoff_max_us < retry_timeout_us) {
    reject("retry_backoff_max_us must be >= retry_timeout_us (the cap cannot "
           "sit below the base timeout)");
  }
  if (retry_max_attempts > 0 && retry_timeout_us <= 0) {
    reject("retry_max_attempts is set but retry_timeout_us == 0 disables "
           "retransmission entirely");
  }
  if (!fault_plan.empty()) {
    fault_plan.validate(static_cast<std::uint32_t>(num_servers),
                        static_cast<std::uint32_t>(num_clients));
  }
  if (store_model == StoreModel::kLsm) {
    // Re-thrown with the LsmOptions field name in the message.
    lsm.validate();
  }
  overload.validate();
  if (overload.deadlines() && retry_timeout_us > 0 &&
      retry_timeout_us >= overload.deadline_budget_us) {
    reject(
        "retry_timeout_us (" + std::to_string(retry_timeout_us) +
        ") must be < overload.deadline_budget_us (" +
        std::to_string(overload.deadline_budget_us) +
        ") — a request whose first retransmission fires at or after its "
        "end-to-end deadline can never retry before expiring, so the retry "
        "machinery is dead weight that only delays the expiry accounting");
  }
  if (!tenants.empty()) {
    const std::uint64_t universe = num_servers * keys_per_server;
    if (tenants.size() > universe) {
      reject("tenants: more tenants than keys — every tenant needs a "
             "non-empty keyspace slice");
    }
    bool any_synthetic = false;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const workload::TenantSpec& tenant = tenants[t];
      const std::string where = "tenants[" + std::to_string(t) + "] ('" +
                                tenant.name + "')";
      if (!(tenant.share > 0)) reject(where + ": share must be > 0");
      if (tenant.replay_path.empty()) any_synthetic = true;
      // Spec strings may come from code rather than the registry (which
      // validates eagerly); parse them here so a typo fails before any
      // simulation state exists. parse_* throw std::logic_error; translate.
      try {
        if (!tenant.fanout_spec.empty()) workload::parse_int_dist(tenant.fanout_spec);
        if (!tenant.value_size_spec.empty())
          workload::parse_real_dist(tenant.value_size_spec);
      } catch (const std::logic_error& e) {
        reject(where + ": " + e.what());
      }
      if (tenant.has_mix) {
        const workload::OpMix& mix = tenant.mix;
        const double sum = mix.read + mix.update + mix.rmw;
        if (mix.read < 0 || mix.update < 0 || mix.rmw < 0 ||
            sum < 1.0 - 1e-9 || sum > 1.0 + 1e-9) {
          reject(where + ": mix fractions must be non-negative and sum to 1");
        }
      }
      if (tenant.drift.rotate_period_us < 0) {
        reject(where + ": drift rotate_period_us must be >= 0");
      }
      if (tenant.drift.rotate_period_us > 0 && tenant.drift.rotate_stride < 1) {
        reject(where + ": drift rotate_stride must be >= 1");
      }
      for (const workload::StormWindow& storm : tenant.drift.storms) {
        if (storm.end <= storm.start || storm.start < 0) {
          reject(where + ": storm window must have 0 <= start < end");
        }
        if (storm.share < 0 || storm.share > 1) {
          reject(where + ": storm share must be in [0, 1]");
        }
        if (storm.keys < 1) reject(where + ": storm keys must be >= 1");
      }
      if (!tenant.replay_path.empty() && tenant.drift.enabled()) {
        reject(where + ": a replay tenant cannot also configure drift");
      }
    }
    if (!any_synthetic && write_fraction > 0) {
      reject("tenants: write_fraction is set but every tenant replays a "
             "trace — replay operations come verbatim from the file");
    }
  }
}

double ClusterConfig::mean_op_demand_us() const {
  DAS_CHECK(value_size_bytes != nullptr);
  DAS_CHECK(service_bytes_per_us > 0);
  return per_op_overhead_us + value_size_bytes->mean() / service_bytes_per_us;
}

double ClusterConfig::nominal_capacity(SimTime horizon) const {
  DAS_CHECK(num_servers >= 1);
  DAS_CHECK(server_speed_factors.empty() ||
            server_speed_factors.size() == num_servers);
  DAS_CHECK(speed_profiles.empty() || speed_profiles.size() == 1 ||
            speed_profiles.size() == num_servers);

  const auto profile_mean = [&](std::size_t server) -> double {
    if (speed_profiles.empty()) return 1.0;
    const auto& profile =
        speed_profiles.size() == 1 ? speed_profiles[0] : speed_profiles[server];
    if (profile == nullptr) return 1.0;
    const Duration step = kMillisecond;
    double acc = 0;
    std::size_t n = 0;
    for (SimTime t = 0; t < horizon; t += step, ++n) acc += profile->value_at(t);
    return n ? acc / static_cast<double>(n) : profile->value_at(0);
  };

  double capacity = 0;
  for (std::size_t s = 0; s < num_servers; ++s) {
    const double factor =
        server_speed_factors.empty() ? 1.0 : server_speed_factors[s];
    DAS_CHECK(factor > 0);
    capacity += factor * profile_mean(s);
  }
  return capacity;
}

double ClusterConfig::derived_arrival_rate(SimTime horizon) const {
  // Loads >= 1 are deliberately representable: the overload experiments
  // (E22) drive the cluster past saturation to study shedding and
  // metastability. The upper sanity bound only catches unit mistakes.
  DAS_CHECK(target_load > 0 && target_load < 10);
  DAS_CHECK(fanout != nullptr);
  DAS_CHECK(write_fraction >= 0 && write_fraction <= 1);
  const double read_work = fanout->mean() * mean_op_demand_us();
  const auto replicas = static_cast<double>(
      std::min(std::max<std::size_t>(replication, 1), num_servers));
  const double write_size =
      (write_size_bytes ? write_size_bytes : value_size_bytes)->mean();
  const double write_work =
      replicas * (per_op_overhead_us + write_size / service_bytes_per_us);
  const double work_per_request =
      (1.0 - write_fraction) * read_work + write_fraction * write_work;
  double load_profile_mean = 1.0;
  if (load_profile != nullptr) {
    const Duration step = kMillisecond;
    double acc = 0;
    std::size_t n = 0;
    for (SimTime t = 0; t < horizon; t += step, ++n) acc += load_profile->value_at(t);
    load_profile_mean = n ? acc / static_cast<double>(n) : load_profile->value_at(0);
    DAS_CHECK(load_profile_mean > 0);
  }
  return target_load * nominal_capacity(horizon) /
         (work_per_request * load_profile_mean);
}

}  // namespace das::core
