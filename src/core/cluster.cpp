#include "core/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "core/wire.hpp"
#include "workload/arrival.hpp"
#include "workload/spec.hpp"

namespace das::core {

namespace {

/// Tenant t's contiguous keyspace slice: equal floor(universe / count) keys
/// each, the last tenant absorbing the remainder.
struct TenantSlice {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

TenantSlice tenant_slice(std::uint64_t universe, std::size_t count, std::size_t t) {
  const std::uint64_t slice = universe / count;
  const std::uint64_t base = slice * static_cast<std::uint64_t>(t);
  return {base, t + 1 == count ? universe - base : slice};
}

bool policy_uses_progress(sched::Policy policy) {
  switch (policy) {
    case sched::Policy::kDas:
    case sched::Policy::kDasNoDefer:
    case sched::Policy::kDasNoAging:
    case sched::Policy::kDasCritical:
    case sched::Policy::kReqSrpt:
      return true;
    // DAS-NA turns the whole adaptive feedback loop off, progress included.
    case sched::Policy::kDasNoAdapt:
    default:
      return false;
  }
}

}  // namespace

Cluster::Cluster(ClusterConfig config, RunWindow window, trace::Tracer* tracer)
    : config_(std::move(config)), window_(window), tracer_(tracer) {
  DAS_CHECK(config_.num_servers >= 1);
  DAS_CHECK(config_.num_clients >= 1);
  DAS_CHECK(config_.keys_per_server >= 1);
  DAS_CHECK(window_.measure_us > 0);
  config_.validate();

  Rng master{config_.seed};

  // Network.
  net::Network::Config net_cfg;
  net_cfg.latency = config_.net_jitter_sigma > 0
                        ? net::make_lognormal_latency(config_.net_latency_us,
                                                      config_.net_jitter_sigma)
                        : net::make_constant_latency(config_.net_latency_us);
  net_cfg.loss_probability = config_.msg_loss_probability;
  net_cfg.num_nodes = static_cast<std::uint32_t>(config_.num_servers +
                                                 config_.num_clients);
  net_ = std::make_unique<net::Network>(sim_, net_cfg, master.fork(0xA11CE));

  // Placement.
  partitioner_ = config_.ring_vnodes > 0
                     ? store::make_consistent_hash_ring(config_.num_servers,
                                                        config_.ring_vnodes)
                     : store::make_modulo_partitioner(config_.num_servers);

  // Key catalogue: sizes drawn once, shared by clients (demand estimation)
  // and servers (stored values). With tenants, each key draws from its
  // owning tenant's value-size distribution (inheriting the cluster's when
  // the tenant sets none) — same single sequential stream either way, so the
  // legacy path is untouched.
  const std::uint64_t universe =
      config_.num_servers * config_.keys_per_server;
  const std::size_t tenant_count = config_.tenants.size();
  tenant_value_dists_.resize(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    tenant_value_dists_[t] =
        config_.tenants[t].value_size_spec.empty()
            ? config_.value_size_bytes
            : workload::parse_real_dist(config_.tenants[t].value_size_spec);
  }
  key_sizes_.resize(universe);
  {
    Rng size_rng = master.fork(0x512E);
    if (tenant_count == 0) {
      for (auto& size : key_sizes_) {
        size = static_cast<Bytes>(
            std::max(1.0, std::round(config_.value_size_bytes->sample(size_rng))));
      }
    } else {
      const std::uint64_t slice = universe / tenant_count;
      for (std::uint64_t key = 0; key < universe; ++key) {
        const std::size_t owner = slice == 0
                                      ? tenant_count - 1
                                      : std::min<std::size_t>(
                                            tenant_count - 1,
                                            static_cast<std::size_t>(key / slice));
        key_sizes_[key] = static_cast<Bytes>(std::max(
            1.0, std::round(tenant_value_dists_[owner]->sample(size_rng))));
      }
    }
  }

  // Servers.
  metrics_.set_window(window_.warmup_us, window_.horizon());
  if (config_.timeline_bucket_us > 0)
    metrics_.enable_timeline(config_.timeline_bucket_us);
  servers_.reserve(config_.num_servers);
  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    Server::Params params;
    params.id = static_cast<ServerId>(s);
    params.speed_factor =
        config_.server_speed_factors.empty() ? 1.0 : config_.server_speed_factors[s];
    if (!config_.speed_profiles.empty()) {
      params.speed_profile = config_.speed_profiles.size() == 1
                                 ? config_.speed_profiles[0]
                                 : config_.speed_profiles[s];
    }
    params.speed_alpha = config_.server_speed_alpha;
    params.preemptive = config_.preemptive_service;
    params.log_structured_storage = config_.log_structured_storage;
    params.overload = config_.overload;
    if (config_.store_model == StoreModel::kLsm) {
      store::LsmOptions lsm_opt = config_.lsm;
      // Costs are expressed in the same currency as the synthetic demand
      // model: mirror the service-model anchors from the config.
      lsm_opt.per_op_overhead_us = config_.per_op_overhead_us;
      lsm_opt.service_bytes_per_us = config_.service_bytes_per_us;
      // Forked only in LSM mode so the synthetic fork sequence — and with it
      // every golden result — is untouched (Rng::fork consumes parent state).
      params.service_model = std::make_unique<store::LsmModel>(
          lsm_opt, master.fork(0x15A0D0 + s).next_u64());
    }

    sched::SchedulerConfig sched_cfg = config_.sched_config;
    sched_cfg.seed = master.fork(0x5EED + s).next_u64();
    auto scheduler = sched::make_scheduler(config_.policy, sched_cfg);

    auto server = std::make_unique<Server>(sim_, std::move(params),
                                           std::move(scheduler), metrics_);
    server->set_utilization_window(window_.warmup_us, window_.horizon());
    if (tracer_ != nullptr) server->set_tracer(tracer_);
    servers_.push_back(std::move(server));
  }

  // Every server (and through it, its scheduler) is auditable; the cadence
  // decides whether audits run continuously during the event loop.
  for (const auto& server : servers_) sim_.add_auditable(server.get());
  sim_.set_audit_cadence(config_.audit_every_events);

  const std::size_t replication =
      std::min(std::max<std::size_t>(config_.replication, 1), config_.num_servers);
  populate_servers(universe, replication);

  // Response routing: server -> network -> client.
  for (auto& server : servers_) {
    server->set_response_handler([this](const OpResponse& resp) {
      net_->send(server_node(resp.server), client_node(resp.client),
                 wire::response_wire_size(resp),
                 [this, resp] { clients_[resp.client]->on_response(resp); });
    });
  }

  // Workload generators. Legacy: one generator over the full keyspace shared
  // by all clients. Tenants: one per tenant over its contiguous slice
  // (replay tenants load their trace instead).
  if (tenant_count == 0) {
    workload::MultigetGenerator::Config gen_cfg;
    gen_cfg.key_universe = universe;
    gen_cfg.zipf_theta = config_.zipf_theta;
    gen_cfg.fanout = config_.fanout;
    generator_ = std::make_unique<workload::MultigetGenerator>(gen_cfg);
  } else {
    tenant_generators_.resize(tenant_count);
    replay_traces_.resize(tenant_count);
    for (std::size_t t = 0; t < tenant_count; ++t) {
      const workload::TenantSpec& tenant = config_.tenants[t];
      if (!tenant.replay_path.empty()) {
        replay_traces_[t] = workload::ReplayTrace::load(tenant.replay_path);
        DAS_CHECK_MSG(replay_traces_[t].empty() ||
                          replay_traces_[t].max_key() < universe,
                      "replay trace '" + tenant.replay_path +
                          "' references keys outside the keyspace");
        continue;
      }
      const TenantSlice slice = tenant_slice(universe, tenant_count, t);
      workload::MultigetGenerator::Config gen_cfg;
      gen_cfg.key_universe = slice.size;
      gen_cfg.key_base = slice.base;
      gen_cfg.zipf_theta =
          tenant.zipf_theta >= 0 ? tenant.zipf_theta : config_.zipf_theta;
      gen_cfg.fanout = tenant.fanout_spec.empty()
                           ? config_.fanout
                           : workload::parse_int_dist(tenant.fanout_spec);
      // Distinct permutation per tenant so tenants' hot keys land on
      // different servers instead of colliding rank-for-rank.
      gen_cfg.rank_permutation_seed =
          0x9E3779B9ull + 0xD1B54A32D192ED03ull * static_cast<std::uint64_t>(t);
      gen_cfg.drift = tenant.drift;
      tenant_generators_[t] =
          std::make_unique<workload::MultigetGenerator>(gen_cfg);
    }
    metrics_.enable_tenants(tenant_count);
  }

  // Clients.
  bool any_synthetic = tenant_count == 0;
  double share_sum = 0;
  for (std::size_t t = 0; t < tenant_count; ++t) {
    if (config_.tenants[t].replay_path.empty()) {
      any_synthetic = true;
      share_sum += config_.tenants[t].share;
    }
  }
  const double total_rate = any_synthetic ? derived_request_rate() : 0.0;
  const double per_client_rate = total_rate / static_cast<double>(config_.num_clients);
  const bool progress =
      config_.progress_updates && policy_uses_progress(config_.policy);
  const bool adaptive =
      config_.client_adaptive && config_.policy != sched::Policy::kDasNoAdapt;

  clients_.reserve(config_.num_clients);
  for (std::size_t c = 0; c < config_.num_clients; ++c) {
    Client::Params params;
    params.id = static_cast<ClientId>(c);
    params.num_servers = config_.num_servers;
    params.per_op_overhead_us = config_.per_op_overhead_us;
    params.service_bytes_per_us = config_.service_bytes_per_us;
    params.adaptive = adaptive;
    params.progress_updates = progress;
    params.ewma_alpha = config_.client_ewma_alpha;
    params.est_rtt_us = 2.0 * config_.net_latency_us;
    params.edf_slo_us = config_.edf_slo_us;
    params.replication = replication;
    params.replica_selection = config_.replica_selection;
    params.retry_timeout_us = config_.retry_timeout_us;
    params.retry_backoff_max_us = config_.retry_backoff_max_us;
    params.retry_max_attempts = config_.retry_max_attempts;
    params.suspicion_rto_threshold = config_.suspicion_rto_threshold;
    params.hedge_delay_us = config_.hedge_delay_us;
    params.write_fraction = config_.write_fraction;
    params.write_size_bytes = config_.write_size_bytes ? config_.write_size_bytes
                                                       : config_.value_size_bytes;
    params.overload = config_.overload;

    const auto client_id = static_cast<ClientId>(c);
    auto send_ops = [this, client_id](std::span<const Client::OpSend> sends) {
      const std::uint32_t id = acquire_fanout();
      Fanout& fanout = fanouts_[id];
      fanout.progress = false;
      for (const Client::OpSend& send : sends) {
        fanout.msgs.push_back(
            {server_node(send.server), wire::op_wire_size(send.ctx)});
        fanout.ops.push_back(send.ctx);
      }
      route_fanout(client_id, id);
    };
    auto send_progress = [this, client_id](
                             RequestId rid,
                             std::span<const Client::ProgressSend> sends) {
      progress_messages_ += sends.size();
      const std::uint32_t id = acquire_fanout();
      Fanout& fanout = fanouts_[id];
      fanout.progress = true;
      fanout.request = rid;
      for (const Client::ProgressSend& send : sends) {
        fanout.msgs.push_back({server_node(send.server), wire::progress_wire_size()});
        fanout.updates.push_back(send.update);
      }
      route_fanout(client_id, id);
    };

    const auto make_arrivals = [&](double rate) -> workload::ArrivalPtr {
      return config_.load_profile
                 ? workload::make_modulated_poisson(rate, config_.load_profile,
                                                    window_.horizon())
                 : workload::make_poisson_arrivals(rate);
    };

    if (tenant_count == 0) {
      clients_.push_back(std::make_unique<Client>(
          sim_, params, master.fork(0xC11E47 + c), *generator_,
          make_arrivals(per_client_rate), *partitioner_, key_sizes_, metrics_,
          std::move(send_ops), std::move(send_progress)));
    } else {
      params.num_clients = config_.num_clients;
      std::vector<Client::TenantStream> streams(tenant_count);
      for (std::size_t t = 0; t < tenant_count; ++t) {
        const workload::TenantSpec& tenant = config_.tenants[t];
        Client::TenantStream& stream = streams[t];
        if (!tenant.replay_path.empty()) {
          stream.replay = &replay_traces_[t];
          continue;
        }
        stream.generator = tenant_generators_[t].get();
        // The cluster rate splits across synthetic tenants by share, then
        // across clients evenly.
        stream.arrivals =
            make_arrivals(per_client_rate * tenant.share / share_sum);
        stream.has_mix = tenant.has_mix;
        stream.mix = tenant.mix;
        if (!tenant.value_size_spec.empty()) {
          stream.write_size_bytes = tenant_value_dists_[t];
        }
      }
      clients_.push_back(std::make_unique<Client>(
          sim_, params, master.fork(0xC11E47 + c), std::move(streams),
          *partitioner_, key_sizes_, metrics_, std::move(send_ops),
          std::move(send_progress)));
    }
    if (tracer_ != nullptr) clients_.back()->set_tracer(tracer_);
    clients_.back()->set_breakdown_collector(&breakdown_);
  }

  // The breakdown uses the same measurement window as the metrics.
  breakdown_.set_window(window_.warmup_us, window_.horizon());
  breakdown_.set_retain_cap(config_.breakdown_retain_requests);
}

std::uint32_t Cluster::acquire_fanout() {
  if (free_fanouts_.empty()) {
    fanouts_.emplace_back();
    return static_cast<std::uint32_t>(fanouts_.size() - 1);
  }
  const std::uint32_t id = free_fanouts_.back();
  free_fanouts_.pop_back();
  Fanout& fanout = fanouts_[id];
  fanout.msgs.clear();
  fanout.ops.clear();
  fanout.updates.clear();
  return id;
}

void Cluster::route_fanout(ClientId client, std::uint32_t id) {
  Fanout& fanout = fanouts_[id];
  fanout.events = net_->send_fanout(
      client_node(client), fanout.msgs, [this, id](std::uint32_t index) {
        return [this, id, index] { deliver_fanout(id, index); };
      });
  if (fanout.events == 0) free_fanouts_.push_back(id);
}

void Cluster::deliver_fanout(std::uint32_t id, std::uint32_t index) {
  Fanout& fanout = fanouts_[id];
  // Server ids are their node ids. A crashed server drops what reaches it.
  const auto receive = [&](std::size_t i) {
    Server& server = *servers_[fanout.msgs[i].to];
    if (fanout.progress) {
      server.receive_progress(fanout.request, fanout.updates[i]);
    } else {
      server.receive_op(fanout.ops[i]);
    }
  };
  if (index == net::kAllDelivered) {
    for (std::size_t i = 0; i < fanout.msgs.size(); ++i) {
      if (fanout.msgs[i].delivered) receive(i);
    }
  } else {
    receive(index);
  }
  if (--fanout.events == 0) free_fanouts_.push_back(id);
}

void Cluster::populate_servers(std::uint64_t universe, std::size_t replication) {
  // Every key lives on its replica set (primary-only when replication=1). A
  // stable counting sort buckets the keys by server, so each server still
  // receives its keys in ascending order; each store is then presized once
  // and filled before the next, instead of growing all of them round-robin.
  // Placement is computed twice (count, then scatter) rather than stored:
  // it is cheap, and a key-major placement array would only add to the
  // memory peak while the stores fill.
  const std::size_t servers = config_.num_servers;
  std::vector<ServerId> replicas;
  const auto place = [&](std::uint64_t key) -> const std::vector<ServerId>& {
    if (replication == 1) {
      replicas.assign(1, partitioner_->server_for(key));
    } else {
      partitioner_->replicas_into(key, replication, replicas);
    }
    return replicas;
  };
  std::vector<std::size_t> bucket_begin(servers + 1, 0);
  for (std::uint64_t key = 0; key < universe; ++key) {
    for (const ServerId s : place(key)) ++bucket_begin[s + 1];
  }
  std::partial_sum(bucket_begin.begin(), bucket_begin.end(), bucket_begin.begin());

  std::vector<KeyId> bucketed(bucket_begin.back());
  std::vector<std::size_t> cursor(bucket_begin.begin(), bucket_begin.end() - 1);
  for (std::uint64_t key = 0; key < universe; ++key) {
    for (const ServerId s : place(key)) bucketed[cursor[s]++] = key;
  }
  for (std::size_t s = 0; s < servers; ++s) {
    Server& server = *servers_[s];
    server.reserve_storage(bucket_begin[s + 1] - bucket_begin[s]);
    for (std::size_t i = bucket_begin[s]; i < bucket_begin[s + 1]; ++i) {
      server.populate(bucketed[i], key_sizes_[bucketed[i]]);
    }
  }
}

double Cluster::derived_request_rate() const {
  if (!config_.tenants.empty()) return derived_tenant_request_rate();
  if (config_.load_calibration == LoadCalibration::kAverageCapacity) {
    return config_.derived_arrival_rate(window_.horizon());
  }
  // Hottest-server calibration: expected demand share of server s per drawn
  // key is  share_s = sum over its keys of pmf(rank) * demand(key).
  // Utilisation of s at op rate L is  L * share_s / speed_s, so the op rate
  // that puts the hottest server at target_load is
  //   L = target_load / max_s(share_s / speed_s).
  std::vector<double> share(config_.num_servers, 0.0);
  const std::uint64_t universe = key_sizes_.size();
  const std::size_t replication =
      std::min(std::max<std::size_t>(config_.replication, 1), config_.num_servers);
  for (std::uint64_t rank = 0; rank < universe; ++rank) {
    const KeyId key = generator_->key_for_rank(rank);
    const double demand =
        config_.per_op_overhead_us +
        static_cast<double>(key_sizes_[key]) / config_.service_bytes_per_us;
    // Selection-aware share model (src/select): modes that never leave the
    // primary put a key's whole demand there; every other mode spreads it
    // evenly across the replica set — exact for kRandom, a deliberate
    // approximation for the view-driven modes (least-delay/tars/power-of-d),
    // which chase the momentarily fastest replica but equalise in the
    // homogeneous steady state this calibration assumes (see EXPERIMENTS.md,
    // "Replica selection").
    if (replication == 1 ||
        select::load_share_model(config_.replica_selection) ==
            select::LoadShareModel::kAllOnPrimary) {
      share[partitioner_->server_for(key)] += generator_->rank_pmf(rank) * demand;
    } else {
      const auto replicas = partitioner_->replicas_for(key, replication);
      const double slice = generator_->rank_pmf(rank) * demand /
                           static_cast<double>(replicas.size());
      for (const ServerId s : replicas) share[s] += slice;
    }
  }
  const auto profile_mean = [&](std::size_t s) -> double {
    if (config_.speed_profiles.empty()) return 1.0;
    const auto& profile = config_.speed_profiles.size() == 1
                              ? config_.speed_profiles[0]
                              : config_.speed_profiles[s];
    if (profile == nullptr) return 1.0;
    const Duration step = kMillisecond;
    double acc = 0;
    std::size_t n = 0;
    for (SimTime t = 0; t < window_.horizon(); t += step, ++n)
      acc += profile->value_at(t);
    return n ? acc / static_cast<double>(n) : profile->value_at(0);
  };
  double hottest = 0;
  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    const double speed =
        (config_.server_speed_factors.empty() ? 1.0 : config_.server_speed_factors[s]) *
        profile_mean(s);
    hottest = std::max(hottest, share[s] / speed);
  }
  DAS_CHECK(hottest > 0);
  double load_profile_mean = 1.0;
  if (config_.load_profile != nullptr) {
    const Duration step = kMillisecond;
    double acc = 0;
    std::size_t n = 0;
    for (SimTime t = 0; t < window_.horizon(); t += step, ++n)
      acc += config_.load_profile->value_at(t);
    load_profile_mean = acc / static_cast<double>(n);
  }
  const double op_rate = config_.target_load / (hottest * load_profile_mean);
  return op_rate / config_.fanout->mean();
}

double Cluster::derived_tenant_request_rate() const {
  // Multi-tenant calibration: the expected demand of one request is the
  // share-weighted average across SYNTHETIC tenants of their mix-weighted
  // read / update / read-modify-write work. Replay tenants contribute no
  // derived load — their rate comes verbatim from the trace timestamps.
  const std::size_t tenant_count = config_.tenants.size();
  const std::uint64_t universe = key_sizes_.size();
  const std::size_t replication =
      std::min(std::max<std::size_t>(config_.replication, 1), config_.num_servers);
  const double rate = config_.service_bytes_per_us;
  const double overhead = config_.per_op_overhead_us;

  double share_sum = 0;
  for (const workload::TenantSpec& tenant : config_.tenants) {
    if (tenant.replay_path.empty()) share_sum += tenant.share;
  }
  DAS_CHECK_MSG(share_sum > 0, "rate derivation needs a synthetic tenant");

  // Per-tenant mix (legacy write_fraction when the spec carries none) and
  // written-value mean. A tenant without any write-size distribution keeps
  // the key's existing size on writes, so its write demand is per-key.
  const auto mix_of = [&](const workload::TenantSpec& tenant) {
    workload::OpMix mix;
    if (tenant.has_mix) {
      mix = tenant.mix;
    } else {
      mix.read = 1.0 - config_.write_fraction;
      mix.update = config_.write_fraction;
      mix.rmw = 0.0;
    }
    return mix;
  };
  const auto write_mean_of = [&](std::size_t t, bool& has_dist) -> double {
    if (!config_.tenants[t].value_size_spec.empty()) {
      has_dist = true;
      return tenant_value_dists_[t]->mean();
    }
    if (config_.write_size_bytes != nullptr) {
      has_dist = true;
      return config_.write_size_bytes->mean();
    }
    has_dist = false;
    return 0.0;
  };

  double load_profile_mean = 1.0;
  if (config_.load_profile != nullptr) {
    const Duration step = kMillisecond;
    double acc = 0;
    std::size_t n = 0;
    for (SimTime t = 0; t < window_.horizon(); t += step, ++n)
      acc += config_.load_profile->value_at(t);
    load_profile_mean = acc / static_cast<double>(n);
    DAS_CHECK(load_profile_mean > 0);
  }

  if (config_.load_calibration == LoadCalibration::kAverageCapacity) {
    double work_per_request = 0;
    const auto replicas = static_cast<double>(replication);
    for (std::size_t t = 0; t < tenant_count; ++t) {
      const workload::TenantSpec& tenant = config_.tenants[t];
      if (!tenant.replay_path.empty()) continue;
      const double weight = tenant.share / share_sum;
      const workload::OpMix mix = mix_of(tenant);
      const double value_mean = tenant_value_dists_[t]->mean();
      bool has_wdist = false;
      const double write_mean_or = write_mean_of(t, has_wdist);
      const double write_mean = has_wdist ? write_mean_or : value_mean;
      const double read_work = tenant_generators_[t]->mean_fanout() *
                               (overhead + value_mean / rate);
      const double update_work = replicas * (overhead + write_mean / rate);
      const double rmw_work =
          replicas * (2.0 * overhead + (value_mean + write_mean) / rate);
      work_per_request += weight * (mix.read * read_work +
                                    mix.update * update_work +
                                    mix.rmw * rmw_work);
    }
    return config_.target_load * config_.nominal_capacity(window_.horizon()) /
           (work_per_request * load_profile_mean);
  }

  // Hottest-server calibration: expected demand share of server s PER
  // REQUEST, summed over every synthetic tenant's popularity law over its
  // slice. Reads follow the selection-aware share model (see the
  // single-tenant branch); updates/RMWs land on the whole replica set.
  std::vector<double> share(config_.num_servers, 0.0);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    const workload::TenantSpec& tenant = config_.tenants[t];
    if (!tenant.replay_path.empty()) continue;
    const workload::MultigetGenerator& gen = *tenant_generators_[t];
    const double weight = tenant.share / share_sum;
    const workload::OpMix mix = mix_of(tenant);
    bool has_wdist = false;
    const double write_mean = write_mean_of(t, has_wdist);
    const double read_scale = weight * mix.read * gen.mean_fanout();
    const double write_frac = mix.update + mix.rmw;
    const bool spread =
        replication > 1 && select::load_share_model(config_.replica_selection) !=
                               select::LoadShareModel::kAllOnPrimary;
    const std::uint64_t slice = tenant_slice(universe, tenant_count, t).size;
    for (std::uint64_t rank = 0; rank < slice; ++rank) {
      const KeyId key = gen.key_for_rank(rank);
      const double pmf = gen.rank_pmf(rank);
      const double key_bytes = static_cast<double>(key_sizes_[key]);
      const double read_demand = overhead + key_bytes / rate;
      if (read_scale > 0) {
        const double read_slice = read_scale * pmf * read_demand;
        if (!spread) {
          share[partitioner_->server_for(key)] += read_slice;
        } else {
          const auto reps = partitioner_->replicas_for(key, replication);
          const double each = read_slice / static_cast<double>(reps.size());
          for (const ServerId s : reps) share[s] += each;
        }
      }
      if (write_frac > 0) {
        const double new_bytes = has_wdist ? write_mean : key_bytes;
        const double update_demand = overhead + new_bytes / rate;
        const double rmw_demand =
            2.0 * overhead + (key_bytes + new_bytes) / rate;
        const double write_slice =
            weight * pmf *
            (mix.update * update_demand + mix.rmw * rmw_demand);
        for (const ServerId s : partitioner_->replicas_for(key, replication)) {
          share[s] += write_slice;
        }
      }
    }
  }
  const auto profile_mean = [&](std::size_t s) -> double {
    if (config_.speed_profiles.empty()) return 1.0;
    const auto& profile = config_.speed_profiles.size() == 1
                              ? config_.speed_profiles[0]
                              : config_.speed_profiles[s];
    if (profile == nullptr) return 1.0;
    const Duration step = kMillisecond;
    double acc = 0;
    std::size_t n = 0;
    for (SimTime t = 0; t < window_.horizon(); t += step, ++n)
      acc += profile->value_at(t);
    return n ? acc / static_cast<double>(n) : profile->value_at(0);
  };
  double hottest = 0;
  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    const double speed =
        (config_.server_speed_factors.empty() ? 1.0 : config_.server_speed_factors[s]) *
        profile_mean(s);
    hottest = std::max(hottest, share[s] / speed);
  }
  DAS_CHECK(hottest > 0);
  // `share` is per-request already (fanout folded in above), so the result
  // needs no division by a mean fanout.
  return config_.target_load / (hottest * load_profile_mean);
}

void Cluster::set_workload_recorder(workload::ReplayTrace* sink) {
  for (auto& client : clients_) client->set_op_recorder(sink);
}

void Cluster::apply_fault(const fault::FaultEvent& event) {
  const SimTime now = sim_.now();
  switch (event.kind) {
    case fault::FaultKind::kCrash:
      servers_[event.server]->crash();
      break;
    case fault::FaultKind::kRecover:
      servers_[event.server]->recover();
      break;
    case fault::FaultKind::kSlowStart:
      servers_[event.server]->set_fault_slowdown(event.factor);
      break;
    case fault::FaultKind::kSlowEnd:
      servers_[event.server]->set_fault_slowdown(1.0);
      break;
    case fault::FaultKind::kPartition:
    case fault::FaultKind::kHeal: {
      const bool cut = event.kind == fault::FaultKind::kPartition;
      if (event.client == fault::kAllClients) {
        for (std::size_t c = 0; c < clients_.size(); ++c) {
          net_->set_partitioned(client_node(static_cast<ClientId>(c)),
                                server_node(event.server), cut);
        }
      } else {
        net_->set_partitioned(client_node(event.client),
                              server_node(event.server), cut);
      }
      break;
    }
    case fault::FaultKind::kLossStart:
      net_->set_burst_loss(event.factor);
      break;
    case fault::FaultKind::kLossEnd:
      net_->set_burst_loss(0.0);
      break;
  }
  if (tracer_ != nullptr) {
    // trace::FaultTraceKind mirrors fault::FaultKind value-for-value (the
    // trace layer must not depend on the fault library).
    tracer_->fault_event(now, static_cast<trace::FaultTraceKind>(event.kind),
                         event.server, event.factor);
  }
}

ExperimentResult Cluster::run() {
  DAS_CHECK_MSG(!ran_, "Cluster::run is single-shot");
  ran_ = true;

  // Wall-clock (not sim-time) bracket around the run: reports host
  // throughput only, never feeds back into simulation state.
  const auto wall_start = std::chrono::steady_clock::now();  // NOLINT(das-no-wallclock)
  // Script the fault timeline before workload generation begins; each event
  // is an ordinary simulator event, so faults interleave deterministically
  // with the workload.
  for (const fault::FaultEvent& event : config_.fault_plan.events) {
    sim_.schedule_at(event.at, [this, event] { apply_fault(event); });
  }
  for (auto& client : clients_) client->start(window_.horizon());
  sim_.run();
  // Close the store models' open compaction/stall windows so busy-time
  // accounting covers the whole run (no-op in synthetic mode).
  for (auto& server : servers_) server->finalize_store();
  const auto wall_end = std::chrono::steady_clock::now();  // NOLINT(das-no-wallclock)

  ExperimentResult result;
  result.rct = metrics_.rct().summary();
  result.op_latency = metrics_.op_latency().summary();
  result.op_wait = metrics_.op_wait().summary();
  for (const auto& client : clients_) {
    result.requests_generated += client->requests_generated();
    result.requests_completed += client->requests_completed();
    result.requests_failed += client->requests_failed();
    result.requests_shed += client->requests_shed();
    result.requests_shed_admission += client->requests_shed_admission();
    result.requests_expired += client->requests_expired();
    result.requests_completed_after_failover +=
        client->requests_completed_after_failover();
    result.ops_generated += client->ops_generated();
    result.ops_retransmitted += client->ops_retransmitted();
    result.duplicate_responses += client->duplicate_responses();
    result.ops_hedged += client->ops_hedged();
    result.ops_failed_over += client->ops_failed_over();
    result.ops_abandoned += client->ops_abandoned();
    result.suspicions_raised += client->suspicions_raised();
    DAS_CHECK_MSG(client->in_flight() == 0, "request leaked past drain");
  }
  // Graceful degradation, not silent loss: every generated request is either
  // completed or explicitly accounted as failed, shed (overload rejection)
  // or expired (end-to-end deadline).
  DAS_CHECK_MSG(result.requests_generated ==
                    result.requests_completed + result.requests_failed +
                        result.requests_shed + result.requests_expired,
                "request conservation violated");
  if (!config_.tenants.empty()) {
    const std::size_t tenant_count = config_.tenants.size();
    result.tenants.resize(tenant_count);
    std::uint64_t generated_sum = 0;
    std::uint64_t completed_sum = 0;
    std::uint64_t failed_sum = 0;
    std::uint64_t shed_sum = 0;
    std::uint64_t expired_sum = 0;
    for (std::size_t t = 0; t < tenant_count; ++t) {
      TenantOutcome& outcome = result.tenants[t];
      outcome.name = config_.tenants[t].name;
      outcome.share = config_.tenants[t].share;
      for (const auto& client : clients_) {
        outcome.requests_generated += client->tenant_requests_generated(t);
        outcome.requests_completed += client->tenant_requests_completed(t);
        outcome.requests_failed += client->tenant_requests_failed(t);
        outcome.requests_shed += client->tenant_requests_shed(t);
        outcome.requests_expired += client->tenant_requests_expired(t);
      }
      // The same conservation law must close PER TENANT: a request generated
      // by tenant t settles as tenant t, never as a neighbour.
      DAS_CHECK_MSG(outcome.requests_generated ==
                        outcome.requests_completed + outcome.requests_failed +
                            outcome.requests_shed + outcome.requests_expired,
                    "per-tenant request conservation violated");
      outcome.rct = metrics_.tenant_rct(t).summary();
      outcome.requests_measured = metrics_.tenant_rct(t).moments().count();
      outcome.requests_failed_measured = metrics_.tenant_failed_measured(t);
      outcome.requests_shed_measured = metrics_.tenant_shed_measured(t);
      outcome.requests_expired_measured = metrics_.tenant_expired_measured(t);
      generated_sum += outcome.requests_generated;
      completed_sum += outcome.requests_completed;
      failed_sum += outcome.requests_failed;
      shed_sum += outcome.requests_shed;
      expired_sum += outcome.requests_expired;
    }
    // And the tenant slices must partition the cluster totals exactly.
    DAS_CHECK_MSG(generated_sum == result.requests_generated &&
                      completed_sum == result.requests_completed &&
                      failed_sum == result.requests_failed &&
                      shed_sum == result.requests_shed &&
                      expired_sum == result.requests_expired,
                  "tenant counters do not sum to the cluster totals");
    // Degradation share: each tenant's fraction of the cluster's measured
    // goodput — the number E22 reads to see WHO keeps completing under
    // overload (per-tenant admission floors are about exactly this).
    const std::uint64_t measured_total = metrics_.requests_measured();
    for (TenantOutcome& outcome : result.tenants) {
      outcome.goodput_share =
          measured_total == 0 ? 0.0
                              : static_cast<double>(outcome.requests_measured) /
                                    static_cast<double>(measured_total);
    }
    // Jain fairness over per-tenant mean RCT: 1.0 = all tenants see the same
    // mean, 1/n = one tenant absorbs all the latency. Tenants with no
    // measured requests are excluded; fewer than two leaves J = 1.
    double sum = 0, sum_sq = 0;
    std::size_t n = 0;
    for (const TenantOutcome& outcome : result.tenants) {
      if (outcome.requests_measured == 0) continue;
      const double mean = outcome.rct.mean;
      sum += mean;
      sum_sq += mean * mean;
      ++n;
    }
    result.jain_fairness =
        n >= 2 && sum_sq > 0 ? (sum * sum) / (static_cast<double>(n) * sum_sq)
                             : 1.0;
  }
  double util_sum = 0;
  for (const auto& server : servers_) {
    result.ops_completed += server->ops_completed();
    result.ops_dropped_crashed += server->ops_dropped();
    result.ops_rejected_busy += server->ops_rejected_busy();
    result.ops_shed_sojourn += server->ops_shed_sojourn();
    result.ops_expired_dropped += server->ops_expired();
    result.wasted_service_us += server->wasted_service_us();
    result.server_crashes += server->crashes();
    result.server_recoveries += server->recoveries();
    const double util = server->busy_time_in_window() / window_.measure_us;
    util_sum += util;
    result.max_server_utilization = std::max(result.max_server_utilization, util);
    const sched::MechanismCounters counters =
        server->scheduler().mechanism_counters();
    result.ops_deferred += counters.ops_deferred;
    result.ops_resumed += counters.ops_resumed;
    result.ops_aged += counters.ops_aged;
    result.reranks_applied += counters.reranks_applied;
    if (const store::ServiceTimeProvider* model = server->service_model()) {
      const store::StoreModelStats st = model->stats();
      result.store_flushes += st.flushes;
      result.store_compactions += st.compactions;
      result.store_write_stalls += st.write_stalls;
      result.store_stalled_write_ops += st.stalled_write_ops;
      result.store_memtable_hits += st.memtable_hits;
      result.store_level_reads += st.level_reads;
      result.store_compaction_busy_us += st.compaction_busy_us;
      result.store_write_stall_us += st.write_stall_us;
    }
  }
  result.breakdown = breakdown_.summary();
  if (config_.msg_loss_probability == 0 && config_.retry_timeout_us == 0 &&
      config_.hedge_delay_us == 0 && !config_.fault_plan.loses_work() &&
      !config_.overload.enabled()) {
    // Exact conservation without faults. With retransmission enabled,
    // spurious retries (RTO shorter than a queueing spike) can be served
    // more than once even at zero loss, and the overload layer sheds ops by
    // design, so the request-level check above (every request settled) is
    // the meaningful invariant there.
    DAS_CHECK_MSG(result.ops_generated == result.ops_completed,
                  "operation conservation violated");
  }
  result.mean_server_utilization = util_sum / static_cast<double>(servers_.size());
  result.requests_measured = metrics_.requests_measured();
  result.requests_failed_measured = metrics_.requests_failed_measured();
  result.requests_shed_measured = metrics_.requests_shed_measured();
  result.requests_expired_measured = metrics_.requests_expired_measured();
  const std::uint64_t settled = result.requests_completed +
                                result.requests_failed + result.requests_shed +
                                result.requests_expired;
  result.availability =
      settled == 0 ? 1.0
                   : static_cast<double>(result.requests_completed) /
                         static_cast<double>(settled);
  // Goodput vs throughput over the measure window: goodput counts only
  // completed-in-time requests, throughput every settled one. A protected
  // cluster under overload shows throughput >> goodput on the unprotected
  // baseline flipping to goodput ~= capacity with the excess shed cheaply.
  const double measure_seconds = window_.measure_us / 1e6;
  const std::uint64_t measured_settled =
      result.requests_measured + result.requests_failed_measured +
      result.requests_shed_measured + result.requests_expired_measured;
  result.goodput_rps =
      static_cast<double>(result.requests_measured) / measure_seconds;
  result.throughput_rps =
      static_cast<double>(measured_settled) / measure_seconds;
  result.net_messages = net_->stats().messages_sent;
  result.net_messages_dropped = net_->stats().messages_dropped;
  result.net_messages_dropped_partition =
      net_->stats().messages_dropped_partition;
  result.net_bytes = net_->stats().bytes_sent;
  result.progress_messages = progress_messages_;
  result.sim_duration_us = sim_.now();
  result.timeline = metrics_.timeline();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return result;
}

}  // namespace das::core
