#include "canal/gateway.h"

#include <algorithm>

namespace canal::core {

proxy::ProxyCostModel GatewayConfig::default_replica_costs() {
  proxy::ProxyCostModel costs;
  // Canal's gateway dataplane is purpose-built (not stock Envoy): a much
  // lighter L7 path, no ingress redirection (traffic arrives by network).
  costs.l7_process = sim::microseconds(90);
  costs.l7_response_process = sim::microseconds(35);
  return costs;
}

GatewayReplica::GatewayReplica(sim::EventLoop& loop, net::ReplicaId id,
                               net::Ipv4Addr ip, const GatewayConfig& config,
                               sim::Rng rng)
    : id_(id), ip_(ip), cpu_(loop, config.replica_cores) {
  proxy::ProxyEngine::Config engine_config;
  engine_config.name = "gw-replica-" + std::to_string(net::id_value(id));
  engine_config.l7 = true;
  engine_config.redirect = proxy::RedirectMode::kNone;
  engine_config.mtls = config.mtls;
  engine_config.costs = config.replica_costs;
  engine_config.session_capacity = config.session_capacity_per_replica;
  engine_config.off_path_fraction = 0.1;
  engine_ = std::make_unique<proxy::ProxyEngine>(loop, cpu_, engine_config,
                                                 rng);
}

void GatewayReplica::fail() {
  alive_ = false;
  engine_->sessions().clear();
}

GatewayBackend::GatewayBackend(sim::EventLoop& loop, net::BackendId id,
                               net::AzId az, const GatewayConfig& config,
                               sim::Rng rng, bool is_sandbox)
    : loop_(loop),
      id_(id),
      az_(az),
      config_(config),
      rng_(rng),
      is_sandbox_(is_sandbox) {
  for (std::size_t i = 0; i < config_.replicas_per_backend; ++i) {
    add_replica();
  }
}

GatewayBackend::~GatewayBackend() { expiry_.cancel(); }

bool GatewayBackend::alive() const {
  return std::any_of(replicas_.begin(), replicas_.end(),
                     [](const auto& r) { return r->alive(); });
}

GatewayReplica* GatewayBackend::find_replica(net::ReplicaId id) {
  for (auto& r : replicas_) {
    if (r->id() == id) return r.get();
  }
  return nullptr;
}

std::vector<net::ReplicaId> GatewayBackend::alive_replica_ids() const {
  std::vector<net::ReplicaId> out;
  for (const auto& r : replicas_) {
    if (r->alive()) out.push_back(r->id());
  }
  return out;
}

GatewayReplica& GatewayBackend::add_replica() {
  ++flow_epoch_;
  const auto rid = static_cast<net::ReplicaId>(
      (net::id_value(id_) << 8) | (next_replica_ & 0xFF));
  ++next_replica_;
  const net::Ipv4Addr ip(172, 16,
                         static_cast<std::uint8_t>(net::id_value(id_) & 0xFF),
                         static_cast<std::uint8_t>(replicas_.size() + 1));
  replicas_.push_back(
      std::make_unique<GatewayReplica>(loop_, rid, ip, config_, rng_.fork()));
  GatewayReplica& replica = *replicas_.back();
  replica.engine().sessions().set_on_first_session([this] {
    if (!expiry_.pending()) arm_expiry();
  });
  router_.add_member(net::Endpoint{ip, 443});
  if (config_.handshake_factory) {
    replica.engine().set_handshake_executor(config_.handshake_factory(az_));
  }

  // Re-install existing configuration on the new replica and let it take
  // over a share of every service's buckets.
  for (const auto& [service_id, service] : service_objects_) {
    if (service != nullptr) {
      mesh::install_service_config(replica.engine(), *service);
    }
  }
  const std::size_t takeover =
      config_.bucket_count / std::max<std::size_t>(1, replicas_.size());
  for (auto& [service_id, table] : bucket_tables_) {
    table.add_replica(replica.id(), takeover);
  }
  return replica;
}

void GatewayBackend::drain_replica(net::ReplicaId id) {
  GatewayReplica* replica = find_replica(id);
  if (replica == nullptr) return;
  ++flow_epoch_;
  router_.remove_member(net::Endpoint{replica->ip(), 443});
  auto available = alive_replica_ids();
  available.erase(std::remove(available.begin(), available.end(), id),
                  available.end());
  for (auto& [service_id, table] : bucket_tables_) {
    table.prepare_offline(id, available);
  }
}

void GatewayBackend::crash_replica(net::ReplicaId id) {
  GatewayReplica* replica = find_replica(id);
  if (replica != nullptr) {
    ++flow_epoch_;
    replica->fail();
  }
}

void GatewayBackend::revive_replica(net::ReplicaId id) {
  GatewayReplica* replica = find_replica(id);
  if (replica != nullptr) {
    ++flow_epoch_;
    replica->recover();
  }
}

void GatewayBackend::evict_replica(net::ReplicaId id) {
  GatewayReplica* replica = find_replica(id);
  if (replica == nullptr) return;
  ++flow_epoch_;
  router_.remove_member(net::Endpoint{replica->ip(), 443});
  auto available = alive_replica_ids();
  available.erase(std::remove(available.begin(), available.end(), id),
                  available.end());
  for (auto& [service_id, table] : bucket_tables_) {
    table.prepare_offline(id, available);
    table.purge(id);
  }
}

bool GatewayBackend::in_service(net::ReplicaId id) {
  GatewayReplica* replica = find_replica(id);
  return replica != nullptr &&
         router_.contains(net::Endpoint{replica->ip(), 443});
}

void GatewayBackend::fail_replica(net::ReplicaId id) {
  crash_replica(id);
  evict_replica(id);
}

void GatewayBackend::recover_replica(net::ReplicaId id) {
  GatewayReplica* replica = find_replica(id);
  if (replica == nullptr) return;
  const net::Endpoint endpoint{replica->ip(), 443};
  if (replica->alive() && router_.contains(endpoint)) return;  // nothing to do
  ++flow_epoch_;
  replica->recover();
  // Covers both a crashed replica coming back and a drained one being
  // re-admitted after a rolling restart.
  if (!router_.contains(endpoint)) router_.add_member(endpoint);
  const std::size_t takeover =
      config_.bucket_count / std::max<std::size_t>(1, replicas_.size());
  for (auto& [service_id, table] : bucket_tables_) {
    table.add_replica(id, takeover);
  }
}

void GatewayBackend::fail_all_replicas() {
  for (auto& r : replicas_) {
    if (r->alive()) fail_replica(r->id());
  }
}

void GatewayBackend::install_service(const k8s::Service& service) {
  ++flow_epoch_;
  services_.insert(service.id);
  service_objects_[service.id] = &service;
  for (auto& replica : replicas_) {
    mesh::install_service_config(replica->engine(), service);
  }
  auto [it, inserted] = bucket_tables_.try_emplace(
      service.id, config_.bucket_count, config_.bucket_chain_length);
  if (inserted) it->second.assign_round_robin(alive_replica_ids());
  // Creates the stats entry (and its service_rps registry link) eagerly.
  static_cast<void>(stats_for(service.id));
}

void GatewayBackend::remove_service(net::ServiceId service) {
  ++flow_epoch_;
  services_.erase(service);
  service_objects_.erase(service);
  bucket_tables_.erase(service);
  throttles_.erase(service);
  throttle_meters_.erase(service);
}

void GatewayBackend::refresh_endpoints(const k8s::Service& service) {
  for (auto& replica : replicas_) {
    mesh::refresh_endpoints(replica->engine(), service);
  }
}

const lb::BucketTable* GatewayBackend::bucket_table(
    net::ServiceId service) const {
  const auto it = bucket_tables_.find(service);
  return it == bucket_tables_.end() ? nullptr : &it->second;
}

telemetry::ServiceStats& GatewayBackend::stats_for(net::ServiceId service) {
  auto [it, inserted] = stats_.try_emplace(service);
  if (inserted) {
    // Stats are heap-allocated so the registry link below stays valid for
    // the backend's lifetime even as later inserts shift the flat map.
    // Consumers (e.g. RCA) discover every service's RPS series via
    // metrics().series_named(kServiceRpsSeries).
    it->second = std::make_unique<telemetry::ServiceStats>();
    registry_.link_time_series(
        std::string(telemetry::kServiceRpsSeries),
        {{std::string(telemetry::kServiceLabel),
          std::to_string(net::id_value(service))}},
        &it->second->rps_history());
  }
  return *it->second;
}

void GatewayBackend::set_throttle(net::ServiceId service, double rps_limit) {
  throttles_[service] = rps_limit;
  throttle_meters_.try_emplace(service, sim::kSecond);
}

void GatewayBackend::clear_throttle(net::ServiceId service) {
  throttles_.erase(service);
  throttle_meters_.erase(service);
}

std::optional<double> GatewayBackend::throttle_of(
    net::ServiceId service) const {
  const auto it = throttles_.find(service);
  if (it == throttles_.end()) return std::nullopt;
  return it->second;
}

void GatewayBackend::handle_request(const net::FiveTuple& tuple,
                                    net::ServiceId service,
                                    bool new_connection, bool https,
                                    http::Request& req,
                                    std::function<void(GatewayOutcome)> done,
                                    telemetry::Trace* trace) {
  GatewayOutcome outcome;
  if (!services_.contains(service)) {
    outcome.status = 404;
    loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
    return;
  }

  // Early rate limiting at the redirector: packets over quota are dropped
  // before any L7 work (§6.2 throttling).
  const auto throttle_it = throttles_.find(service);
  if (throttle_it != throttles_.end()) {
    auto& meter = throttle_meters_.try_emplace(service, sim::kSecond)
                      .first->second;
    if (meter.rate(loop_.now()) >= throttle_it->second) {
      ++throttled_requests_;
      outcome.status = 429;
      loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
      return;
    }
    meter.record(loop_.now());
  }

  GatewayReplica* target = nullptr;
  std::uint32_t hops = 0;
  const FlowEntry* cached = flow_cache_.find(tuple, flow_epoch_);
  if (cached != nullptr && cached->service == service) {
    // Established-flow fast path: replay the memoized single-link decision
    // (head replica, zero hops) — identical to what the chain walk below
    // would compute, since any chain/membership change moved the epoch.
    ++fastpath_hits_;
    target = cached->replica;
    if (trace != nullptr) {
      trace->add("gw/fastpath_hit", telemetry::Component::kFastpath,
                 loop_.now(), loop_.now());
    }
    if (!target->alive()) {
      outcome.status = 503;
      loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
      return;
    }
  } else {
    ++fastpath_misses_;

    // ECMP arrival replica.
    const auto arrival_ep = router_.route(tuple);
    if (!arrival_ep) {
      outcome.status = 503;  // no replica alive
      loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
      return;
    }

    // Redirector: walk the per-service bucket chain to the owning replica.
    const auto table_it = bucket_tables_.find(service);
    if (table_it == bucket_tables_.end()) {
      outcome.status = 500;
      loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
      return;
    }
    const lb::Redirector redirector(table_it->second);
    const auto decision = redirector.resolve(
        tuple, new_connection, [this](net::ReplicaId rid,
                                      const net::FiveTuple& t) {
          const auto it =
              std::find_if(replicas_.begin(), replicas_.end(),
                           [&](const auto& r) { return r->id() == rid; });
          return it != replicas_.end() && (*it)->knows_flow(t);
        });
    if (!decision) {
      outcome.status = 503;
      loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
      return;
    }
    target = find_replica(decision->target);
    if (target == nullptr || !target->alive()) {
      outcome.status = 503;
      loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
      return;
    }
    hops = decision->redirections;

    // Memoize only single-link chains: there the decision is independent
    // of SYN-ness and session placement, so replaying it is exact.
    if (table_it->second.chain(table_it->second.bucket_for(tuple)).size() ==
        1) {
      flow_cache_.insert(tuple, flow_epoch_, FlowEntry{service, target});
    }
  }

  stats_for(service).on_request(loop_.now(), new_connection, https);
  const sim::Duration chain_latency =
      static_cast<sim::Duration>(hops) * config_.redirect_hop_latency;
  CallState* cs = calls_.acquire();
  cs->self = this;
  cs->target = target;
  cs->tuple = tuple;
  cs->service = service;
  cs->new_connection = new_connection;
  cs->req = &req;
  cs->hops = hops;
  cs->trace = trace;
  cs->chain_start = loop_.now();
  cs->done = std::move(done);
  loop_.post(chain_latency, [cs] {
    GatewayBackend& self = *cs->self;
    if (cs->trace != nullptr && cs->hops > 0) {
      // Replica-to-replica forwarding along the bucket chain (§4.4).
      cs->trace->add("gw/redirect-chain", telemetry::Component::kRedirect,
                     cs->chain_start, self.loop_.now());
    }
    self.deliver_at_replica(cs);
  });
}

void GatewayBackend::deliver_at_replica(CallState* cs) {
  // Redirector lookup at each visited replica + tunnel disaggregation.
  cs->lookup_cost =
      static_cast<sim::Duration>(cs->hops + 1) * config_.redirector_cost;
  const sim::Duration pre_cost = cs->lookup_cost + config_.disaggregation_cost;
  const std::uint64_t hash = net::flow_hash(cs->tuple);
  cs->pre_start = loop_.now();
  cs->target->cpu().execute_pinned(hash, pre_cost, [cs] {
    GatewayBackend& self = *cs->self;
    if (cs->trace != nullptr) {
      // Completion = pre_start + FCFS queue wait + pre_cost, so the wait
      // falls out of the elapsed time; charge it to the lookup span.
      const sim::TimePoint split =
          self.loop_.now() - self.config_.disaggregation_cost;
      cs->trace->add("gw/redirector", telemetry::Component::kRedirect,
                     cs->pre_start, split,
                     (split - cs->pre_start) - cs->lookup_cost);
      cs->trace->add("gw/disaggregation",
                     telemetry::Component::kDisaggregation, split,
                     self.loop_.now());
    }
    cs->target->engine().handle_request(
        cs->tuple, cs->service, cs->new_connection, *cs->req,
        [cs](proxy::ProxyEngine::RequestOutcome r) {
          GatewayOutcome outcome;
          outcome.ok = r.ok;
          outcome.status = r.status;
          outcome.endpoint = r.endpoint;
          outcome.replica = cs->target;
          outcome.backend = cs->self;
          outcome.chain_redirections = cs->hops;
          // Everything the continuation needs is in `outcome`; release
          // before invoking it so a re-issued request can reuse the slot.
          auto done = std::move(cs->done);
          cs->self->calls_.release(cs);
          done(outcome);
        },
        cs->trace);
  });
}

void GatewayBackend::handle_response(GatewayReplica& replica,
                                     const net::FiveTuple& tuple,
                                     std::uint64_t bytes,
                                     std::function<void()> done,
                                     telemetry::Trace* trace) {
  replica.engine().handle_response(tuple, bytes, std::move(done), trace);
}

template <typename F>
double GatewayBackend::mean_over_alive(F per_replica) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : replicas_) {
    if (!r->alive()) continue;
    sum += per_replica(*r);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double GatewayBackend::cpu_utilization(sim::Duration window) const {
  return mean_over_alive([window](const GatewayReplica& r) {
    return r.cpu().utilization(window);
  });
}

double GatewayBackend::load_at(sim::TimePoint t) const {
  // Newest run first: before a run's first point, the previous run's last
  // point carries forward.
  for (auto grid = grids_.rbegin(); grid != grids_.rend(); ++grid) {
    const sim::TimePoint until = std::min(t, grid->stop);
    if (until < grid->start + grid->period) continue;
    const sim::TimePoint point =
        grid->start + (until - grid->start) / grid->period * grid->period;
    return mean_over_alive([point](const GatewayReplica& r) {
      return r.cpu().utilization_between(point - sim::seconds(5), point);
    });
  }
  return 0.0;
}

double GatewayBackend::coarse_load(sim::TimePoint lo,
                                   sim::TimePoint hi) const {
  return mean_over_alive([lo, hi](const GatewayReplica& r) {
    return r.cpu().coarse_utilization(lo, hi);
  });
}

double GatewayBackend::session_occupancy() const {
  std::size_t used = 0;
  std::size_t capacity = 0;
  for (const auto& replica : replicas_) {
    const GatewayReplica& r = *replica;
    if (!r.alive()) continue;
    used += r.engine().sessions().size();
    capacity += r.engine().sessions().capacity();
  }
  return capacity == 0 ? 0.0
                       : static_cast<double>(used) /
                             static_cast<double>(capacity);
}

telemetry::BackendSnapshot GatewayBackend::snapshot(sim::Duration window) {
  telemetry::BackendSnapshot snap;
  snap.taken = loop_.now();
  snap.cpu_utilization = cpu_utilization(window);
  snap.session_occupancy = session_occupancy();
  for (auto& [service, stats] : stats_) {
    const double rps = stats->rps(loop_.now());
    snap.service_rps[service] = rps;
    snap.total_rps += rps;
    snap.new_session_rate += stats->new_session_rate(loop_.now());
  }
  return snap;
}

void GatewayBackend::start_sampling(sim::Duration period) {
  const sim::TimePoint now = loop_.now();
  if (!grids_.empty()) {
    grids_.back().stop = std::min(grids_.back().stop, now);
  }
  // Drop runs whose last point no window in the CPU history can reach.
  while (grids_.size() > 1 && grids_[1].start + grids_[1].period <
                                  now - sim::CpuCore::kDefaultHistory) {
    grids_.erase(grids_.begin());
  }
  grids_.push_back(SamplingGrid{now, period});
  arm_expiry();
}

void GatewayBackend::arm_expiry() {
  expiry_.cancel();
  if (!sampling()) return;
  sim::TimePoint floor = std::numeric_limits<sim::TimePoint>::max();
  for (const auto& replica : replicas_) {
    floor = std::min(floor, replica->engine().sessions().idle_floor());
  }
  if (floor == std::numeric_limits<sim::TimePoint>::max()) {
    return;  // every table is empty
  }
  // A sweep at point p scans only if p - floor > timeout.
  const SamplingGrid& grid = grids_.back();
  const sim::TimePoint due = floor + config_.session_idle_timeout;
  const std::int64_t steps =
      due < grid.start ? 1 : (due - grid.start) / grid.period + 1;
  expiry_ = loop_.schedule_at(grid.start + steps * grid.period,
                              [this] { expire_idle(); });
}

void GatewayBackend::expire_idle() {
  for (auto& replica : replicas_) {
    sessions_expired_ += replica->engine().sessions().expire_idle(
        loop_.now(), config_.session_idle_timeout);
  }
  arm_expiry();
}

sim::Duration GatewayBackend::injected_request_cost() const {
  return config_.replica_costs.l7_process +
         config_.replica_costs.l7_response_process +
         config_.replica_costs.crypto.symmetric_cost(2048) +
         config_.redirector_cost + config_.disaggregation_cost;
}

void GatewayBackend::inject_load(net::ServiceId service, double rps,
                                 sim::Duration window,
                                 double new_session_fraction,
                                 double https_fraction) {
  if (rps <= 0) return;
  const double requests = rps * sim::to_seconds(window);
  const auto per_request = injected_request_cost();
  std::vector<GatewayReplica*> alive;
  for (auto& r : replicas_) {
    if (r->alive()) alive.push_back(r.get());
  }
  if (alive.empty()) return;
  // Spread the aggregate CPU across alive replicas and their cores.
  const double per_replica_requests =
      requests / static_cast<double>(alive.size());
  for (GatewayReplica* replica : alive) {
    const double per_core = per_replica_requests /
                            static_cast<double>(replica->cpu().size());
    for (std::size_t core = 0; core < replica->cpu().size(); ++core) {
      const auto cost = static_cast<sim::Duration>(
          per_core * static_cast<double>(per_request));
      replica->cpu().core(core).execute(cost);
    }
  }
  stats_for(service).on_requests(loop_.now(), requests,
                                 requests * new_session_fraction,
                                 requests * https_fraction, window);
}

void GatewayBackend::stop_sampling() {
  if (sampling()) grids_.back().stop = loop_.now();
  expiry_.cancel();
}

std::size_t GatewayBackend::reset_service_sessions(net::ServiceId service) {
  std::size_t total = 0;
  for (auto& replica : replicas_) {
    total += replica->engine().sessions().remove_for(service);
  }
  if (total > 0) ++flow_epoch_;  // lossy migration: cached flows re-derive
  return total;
}

std::size_t GatewayBackend::sessions_for(net::ServiceId service) const {
  std::size_t total = 0;
  for (const auto& replica : replicas_) {
    const GatewayReplica& r = *replica;
    total += r.engine().sessions().count_for(service);
  }
  return total;
}

std::size_t GatewayBackend::long_sessions(net::ServiceId service) const {
  std::size_t total = 0;
  for (const auto& replica : replicas_) {
    const GatewayReplica& r = *replica;
    total += r.engine().sessions().count_older_than(service, loop_.now(),
                                                    sim::minutes(1));
  }
  return total;
}

MeshGateway::MeshGateway(sim::EventLoop& loop, GatewayConfig config,
                         sim::Rng rng)
    : loop_(loop), config_(config), rng_(rng) {}

MeshGateway::~MeshGateway() = default;

net::AzId MeshGateway::add_az(std::size_t backends) {
  Az az;
  az.id = static_cast<net::AzId>(next_az_++);
  az.assigner = std::make_unique<ShuffleShardAssigner>(
      config_.backends_per_service_local, rng_.fork());
  azs_.push_back(std::move(az));
  const net::AzId id = azs_.back().id;
  for (std::size_t i = 0; i < backends; ++i) {
    add_backend(id);
  }
  return id;
}

MeshGateway::Az& MeshGateway::az_of(net::AzId id) {
  for (auto& az : azs_) {
    if (az.id == id) return az;
  }
  throw std::out_of_range("unknown AZ");
}

GatewayBackend& MeshGateway::add_backend(net::AzId az_id, bool is_sandbox) {
  Az& az = az_of(az_id);
  az.backends.push_back(std::make_unique<GatewayBackend>(
      loop_, static_cast<net::BackendId>(backends_by_id_.size() + 1), az_id,
      config_, rng_.fork(), is_sandbox));
  GatewayBackend& backend = *az.backends.back();
  backends_by_id_.push_back(&backend);
  if (is_sandbox) az.sandbox = &backend;

  // Refresh the shuffle-shard pool with non-sandbox backends.
  std::vector<net::BackendId> pool;
  for (const auto& b : az.backends) {
    if (!b->is_sandbox()) pool.push_back(b->id());
  }
  az.assigner->set_pool(std::move(pool));
  return backend;
}

std::vector<GatewayBackend*> MeshGateway::backends_in(net::AzId az_id) {
  std::vector<GatewayBackend*> out;
  for (auto& az : azs_) {
    if (az.id != az_id) continue;
    for (auto& b : az.backends) out.push_back(b.get());
  }
  return out;
}

std::vector<GatewayBackend*> MeshGateway::all_backends() {
  std::vector<GatewayBackend*> out;
  for (auto& az : azs_) {
    for (auto& b : az.backends) out.push_back(b.get());
  }
  return out;
}

GatewayBackend* MeshGateway::find_backend(net::BackendId id) {
  // Id 0 wraps to the largest index and misses like any id past the end;
  // the id compare guards the numbering rule the index relies on.
  const std::size_t index = static_cast<std::size_t>(net::id_value(id)) - 1;
  if (index >= backends_by_id_.size()) return nullptr;
  GatewayBackend* backend = backends_by_id_[index];
  return backend->id() == id ? backend : nullptr;
}

GatewayBackend* MeshGateway::sandbox(net::AzId az_id) {
  Az& az = az_of(az_id);
  if (az.sandbox == nullptr) {
    add_backend(az_id, /*is_sandbox=*/true);
  }
  return az.sandbox;
}

ShuffleShardAssigner& MeshGateway::assigner(net::AzId az_id) {
  return *az_of(az_id).assigner;
}

const k8s::Service* MeshGateway::service_object(net::ServiceId id) const {
  const auto it = service_objects_.find(id);
  return it == service_objects_.end() ? nullptr : it->second;
}

void MeshGateway::register_service(const k8s::Service& service,
                                   std::uint32_t vni) {
  service_objects_[service.id] = &service;
  vswitch_.bind_vni(vni, service.id, service.tenant);
}

bool MeshGateway::install_service(const k8s::Service& service,
                                  net::AzId home_az) {
  service_objects_[service.id] = &service;
  Az& home = az_of(home_az);
  auto combination = home.assigner->assign(service.id);
  if (!combination) {
    // Combination space exhausted (small pools): overlap is unavoidable —
    // fall back to the least-loaded local backends, keeping availability.
    std::vector<GatewayBackend*> candidates;
    for (auto& b : home.backends) {
      if (!b->is_sandbox()) candidates.push_back(b.get());
    }
    if (candidates.empty()) return false;
    std::sort(candidates.begin(), candidates.end(),
              [](const GatewayBackend* a, const GatewayBackend* b) {
                if (a->services().size() != b->services().size()) {
                  return a->services().size() < b->services().size();
                }
                return net::id_value(a->id()) < net::id_value(b->id());
              });
    std::vector<net::BackendId> fallback;
    for (std::size_t i = 0;
         i < config_.backends_per_service_local && i < candidates.size();
         ++i) {
      fallback.push_back(candidates[i]->id());
    }
    combination = std::move(fallback);
  }

  std::vector<GatewayBackend*> placement;
  for (const auto backend_id : *combination) {
    if (GatewayBackend* backend = find_backend(backend_id)) {
      placement.push_back(backend);
    }
  }
  // Remote copies: least-loaded (fewest services) backends in other AZs.
  for (auto& az : azs_) {
    if (az.id == home_az) continue;
    std::vector<GatewayBackend*> candidates;
    for (auto& b : az.backends) {
      if (!b->is_sandbox()) candidates.push_back(b.get());
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const GatewayBackend* a, const GatewayBackend* b) {
                if (a->services().size() != b->services().size()) {
                  return a->services().size() < b->services().size();
                }
                return net::id_value(a->id()) < net::id_value(b->id());
              });
    for (std::size_t i = 0;
         i < config_.backends_per_service_remote && i < candidates.size();
         ++i) {
      placement.push_back(candidates[i]);
    }
  }
  for (GatewayBackend* backend : placement) backend->install_service(service);
  placements_[service.id] = std::move(placement);
  return true;
}

void MeshGateway::remove_service(net::ServiceId service) {
  const auto it = placements_.find(service);
  if (it != placements_.end()) {
    for (GatewayBackend* backend : it->second) {
      backend->remove_service(service);
    }
    placements_.erase(it);
  }
}

std::span<GatewayBackend* const> MeshGateway::placement_view(
    net::ServiceId service) const {
  const auto it = placements_.find(service);
  if (it == placements_.end()) return {};
  return it->second;
}

void MeshGateway::extend_service(net::ServiceId service,
                                 GatewayBackend& backend) {
  const k8s::Service* object = service_object(service);
  if (object == nullptr) return;
  backend.install_service(*object);
  auto& placement = placements_[service];
  if (std::find(placement.begin(), placement.end(), &backend) ==
      placement.end()) {
    placement.push_back(&backend);
  }
}

void MeshGateway::retract_service(net::ServiceId service,
                                  GatewayBackend& backend) {
  backend.remove_service(service);
  auto it = placements_.find(service);
  if (it != placements_.end()) {
    auto& placement = it->second;
    placement.erase(std::remove(placement.begin(), placement.end(), &backend),
                    placement.end());
  }
}

void MeshGateway::move_to_sandbox(net::ServiceId service, net::AzId az_id) {
  GatewayBackend* box = sandbox(az_id);
  const k8s::Service* object = service_object(service);
  if (box == nullptr || object == nullptr) return;
  // Remove from regular backends, keep only the sandbox placement.
  const auto it = placements_.find(service);
  if (it != placements_.end()) {
    for (GatewayBackend* backend : it->second) {
      if (backend != box) backend->remove_service(service);
    }
  }
  box->install_service(*object);
  placements_[service] = {box};
}

GatewayBackend* MeshGateway::resolve(net::ServiceId service,
                                     net::AzId client_az) {
  GatewayBackend* local_best = nullptr;
  double local_best_utilization = 0.0;
  GatewayBackend* remote_best = nullptr;
  for (GatewayBackend* backend : placement_view(service)) {
    if (!backend->alive()) continue;
    if (backend->az() == client_az) {
      // Lowest water level among healthy local backends.
      const double utilization = backend->cpu_utilization(sim::seconds(5));
      if (local_best == nullptr || utilization < local_best_utilization) {
        local_best = backend;
        local_best_utilization = utilization;
      }
    } else if (remote_best == nullptr) {
      remote_best = backend;
    }
  }
  return local_best != nullptr ? local_best : remote_best;
}

void MeshGateway::handle_request(net::Packet packet, bool new_connection,
                                 bool https, http::Request& req,
                                 net::AzId client_az,
                                 std::function<void(GatewayOutcome)> done,
                                 telemetry::Trace* trace) {
  // The vSwitch maps the VNI to the global service ID before stripping the
  // outer header — tenant differentiation despite overlapping VPC space.
  if (!vswitch_.deliver_to_vm(packet)) {
    GatewayOutcome outcome;
    outcome.status = 403;  // unknown VNI: not a registered tenant network
    loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
    return;
  }
  if (!packet.service_id) {
    GatewayOutcome outcome;
    outcome.status = 400;
    loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
    return;
  }
  const net::ServiceId service = *packet.service_id;
  GatewayBackend* backend = resolve(service, client_az);
  if (backend == nullptr) {
    GatewayOutcome outcome;
    outcome.status = 503;
    loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
    return;
  }
  const sim::Duration extra =
      backend->az() == client_az
          ? 0
          : config_.network.cross_az - config_.network.intra_az;
  DispatchState* gst = dispatches_.acquire();
  gst->self = this;
  gst->backend = backend;
  gst->tuple = packet.tuple;
  gst->service = service;
  gst->new_connection = new_connection;
  gst->https = https;
  gst->req = &req;
  gst->trace = trace;
  gst->extra_start = loop_.now();
  gst->done = std::move(done);
  loop_.post(extra, [gst] {
    MeshGateway& self = *gst->self;
    if (gst->trace != nullptr && self.loop_.now() > gst->extra_start) {
      // Cross-AZ detour to a remote backend (DNS failover, §4.2).
      gst->trace->add("link/cross-az-extra", telemetry::Component::kLink,
                      gst->extra_start, self.loop_.now());
    }
    // Extract everything before releasing: the backend call may re-enter
    // the pool for a follow-up dispatch.
    GatewayBackend* backend = gst->backend;
    const net::FiveTuple tuple = gst->tuple;
    const net::ServiceId service = gst->service;
    const bool new_connection = gst->new_connection;
    const bool https = gst->https;
    http::Request& req = *gst->req;
    telemetry::Trace* trace = gst->trace;
    auto done = std::move(gst->done);
    self.dispatches_.release(gst);
    backend->handle_request(tuple, service, new_connection, https, req,
                            std::move(done), trace);
  });
}

double MeshGateway::total_cpu_core_seconds() const {
  double total = 0.0;
  for (const auto& az : azs_) {
    for (const auto& backend : az.backends) {
      for (std::size_t i = 0; i < backend->replica_count(); ++i) {
        total += backend->replica(i)->cpu().total_busy_core_seconds();
      }
    }
  }
  return total;
}

std::size_t MeshGateway::config_bytes() const {
  std::size_t total = 0;
  for (const auto& az : azs_) {
    for (const auto& backend : az.backends) {
      for (const auto service_id : backend->services()) {
        const k8s::Service* service = service_object(service_id);
        if (service != nullptr) {
          total += mesh::service_config_bytes(*service);
        }
      }
    }
  }
  return total;
}

GatewayHealthMonitor::GatewayHealthMonitor(sim::EventLoop& loop,
                                           MeshGateway& gateway,
                                           Config config)
    : loop_(loop),
      gateway_(gateway),
      config_(config),
      timer_(loop, config.probe_interval, [this] { probe_once(); }) {}

GatewayHealthMonitor::GatewayHealthMonitor(sim::EventLoop& loop,
                                           MeshGateway& gateway)
    : GatewayHealthMonitor(loop, gateway, Config()) {}

void GatewayHealthMonitor::start() { timer_.start(config_.probe_interval); }

void GatewayHealthMonitor::stop() noexcept { timer_.stop(); }

void GatewayHealthMonitor::probe_once() {
  for (GatewayBackend* backend : gateway_.all_backends()) {
    for (std::size_t i = 0; i < backend->replica_count(); ++i) {
      GatewayReplica* replica = backend->replica(i);
      const net::ReplicaId id = replica->id();
      const bool serving = backend->in_service(id);
      if (replica->alive()) {
        dead_streak_.erase(id);
        if (serving) {
          alive_streak_.erase(id);
        } else if (++alive_streak_[id] >= config_.healthy_after) {
          backend->recover_replica(id);
          alive_streak_.erase(id);
          ++readmissions_;
        }
      } else {
        alive_streak_.erase(id);
        if (!serving) {
          dead_streak_.erase(id);
        } else if (++dead_streak_[id] >= config_.unhealthy_after) {
          backend->evict_replica(id);
          dead_streak_.erase(id);
          ++evictions_;
        }
      }
    }
  }
}

}  // namespace canal::core
