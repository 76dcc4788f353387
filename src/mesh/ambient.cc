#include "mesh/ambient.h"

namespace canal::mesh {

proxy::ProxyCostModel AmbientMesh::Config::default_ztunnel_costs() {
  proxy::ProxyCostModel costs;
  // Lightweight Rust L4 proxy, but still redirected via iptables/ipset.
  costs.l4_forward = sim::microseconds(8);
  costs.kernel_pass = sim::microseconds(12);
  return costs;
}

proxy::ProxyCostModel AmbientMesh::Config::default_waypoint_costs() {
  proxy::ProxyCostModel costs;
  // Waypoint is an Envoy with a slimmer chain than a full sidecar.
  costs.l7_process = sim::microseconds(450);
  costs.l7_response_process = sim::microseconds(230);
  return costs;
}

/// Pooled continuation state of one ambient request: every hop captures
/// only this pointer (DESIGN.md §14).
struct AmbientMesh::RequestState : RequestSlot {
  AmbientMesh* self = nullptr;
  proxy::ProxyEngine* client_zt = nullptr;
  proxy::ProxyEngine* waypoint = nullptr;
  proxy::ProxyEngine* server_zt = nullptr;
  const k8s::Node* waypoint_host = nullptr;
  sim::Duration hop2 = 0;      ///< waypoint<->server, both directions
  sim::Duration hop_back = 0;  ///< waypoint->client, taken at the response
  sim::TimePoint app_start = 0;
};

AmbientMesh::AmbientMesh(sim::EventLoop& loop, k8s::Cluster& cluster,
                         Config config, sim::Rng rng)
    : loop_(loop), cluster_(cluster), config_(config), rng_(rng) {}

AmbientMesh::~AmbientMesh() = default;

AmbientMesh::Ztunnel& AmbientMesh::ztunnel_for(const k8s::Node& node) {
  auto& slot = ztunnels_[&node];
  if (!slot) {
    slot = std::make_unique<Ztunnel>(loop_, config_.ztunnel_cores);
    slot->accel = std::make_unique<crypto::AsymmetricAccelerator>(
        loop_, slot->cpu, crypto::AccelMode::kSoftware,
        config_.ztunnel_costs.crypto);
    proxy::ProxyEngine::Config engine_config;
    engine_config.name = "ztunnel-" + std::to_string(net::id_value(node.id()));
    engine_config.l7 = false;
    engine_config.redirect = proxy::RedirectMode::kIptables;
    engine_config.mtls = config_.mtls;
    engine_config.costs = config_.ztunnel_costs;
    engine_config.off_path_fraction = 0.2;
    slot->engine = std::make_unique<proxy::ProxyEngine>(
        loop_, slot->cpu, engine_config, rng_.fork());
    slot->engine->set_handshake_executor(
        [accel = slot->accel.get()](sim::Callback done) {
          accel->submit(std::move(done));
        });
  }
  return *slot;
}

AmbientMesh::Waypoint& AmbientMesh::waypoint_for(const k8s::Service& service) {
  auto& slot = waypoints_[service.id];
  if (!slot) {
    slot = std::make_unique<Waypoint>(loop_, config_.waypoint_cores);
    slot->accel = std::make_unique<crypto::AsymmetricAccelerator>(
        loop_, slot->cpu, crypto::AccelMode::kSoftware,
        config_.waypoint_costs.crypto);
    const auto& nodes = cluster_.nodes();
    slot->host = nodes.empty()
                     ? nullptr
                     : nodes[waypoint_placement_cursor_++ % nodes.size()].get();
    proxy::ProxyEngine::Config engine_config;
    engine_config.name = "waypoint-" + std::to_string(net::id_value(service.id));
    engine_config.l7 = true;
    engine_config.redirect = proxy::RedirectMode::kNone;
    engine_config.mtls = config_.mtls;
    engine_config.costs = config_.waypoint_costs;
    engine_config.off_path_fraction = 0.3;
    slot->engine = std::make_unique<proxy::ProxyEngine>(
        loop_, slot->cpu, engine_config, rng_.fork());
    slot->engine->set_handshake_executor(
        [accel = slot->accel.get()](sim::Callback done) {
          accel->submit(std::move(done));
        });
    install_service_config(*slot->engine, service);
  }
  return *slot;
}

void AmbientMesh::install() {
  for (const auto& node : cluster_.nodes()) {
    Ztunnel& zt = ztunnel_for(*node);
    // Ztunnel L4 forwarding targets: each service's waypoint.
    for (const auto& service : cluster_.services()) {
      Waypoint& wp = waypoint_for(*service);
      const std::string cluster_name = service_cluster_name(service->id);
      zt.engine->clusters().remove_cluster(cluster_name);
      auto& upstream = zt.engine->clusters().add_cluster(cluster_name);
      upstream.add_endpoint(
          net::Endpoint{wp.host != nullptr ? wp.host->ip() : net::Ipv4Addr{},
                        15008},
          net::id_value(service->id));
    }
  }
}

void AmbientMesh::on_pod_created(k8s::Pod& pod) {
  ztunnel_for(pod.node());
  k8s::Service* service = cluster_.find_service(pod.service());
  if (service != nullptr) {
    Waypoint& wp = waypoint_for(*service);
    refresh_endpoints(*wp.engine, *service);
  }
  install();
}

void AmbientMesh::reinstall_all() {
  for (auto& [id, wp] : waypoints_) {
    const k8s::Service* service =
        const_cast<k8s::Cluster&>(cluster_).find_service(id);
    if (service != nullptr) install_service_config(*wp->engine, *service);
  }
  install();
}

proxy::ProxyEngine* AmbientMesh::ztunnel_engine(const k8s::Node& node) {
  const auto it = ztunnels_.find(&node);
  return it == ztunnels_.end() ? nullptr : it->second->engine.get();
}

proxy::ProxyEngine* AmbientMesh::waypoint_engine(net::ServiceId service) {
  const auto it = waypoints_.find(service);
  return it == waypoints_.end() ? nullptr : it->second->engine.get();
}

void AmbientMesh::apply_endpoint_health(net::ServiceId service,
                                        std::uint64_t endpoint_key,
                                        bool healthy) {
  proxy::ProxyEngine* waypoint = waypoint_engine(service);
  if (waypoint == nullptr) return;
  if (proxy::UpstreamCluster* c =
          waypoint->clusters().find(service_cluster_name(service))) {
    c->set_endpoint_health(endpoint_key, healthy);
  }
}

std::size_t AmbientMesh::service_endpoint_total(net::ServiceId service) const {
  const k8s::Service* obj = cluster_.find_service(service);
  return obj != nullptr ? obj->endpoints.size() : 0;
}

void AmbientMesh::finish_request(RequestState* st, int status) {
  if (st->opts.close_after) {
    if (st->client_zt) st->client_zt->close_connection(st->tuple);
    if (st->waypoint) st->waypoint->close_connection(st->tuple);
    if (st->server_zt) st->server_zt->close_connection(st->tuple);
  }
  requests_.finish(st, status, loop_.now());
}

void AmbientMesh::send_request(const RequestOptions& opts,
                               RequestCallback done) {
  RequestState* st = requests_.begin(opts, std::move(done), loop_.now());
  st->self = this;
  st->client_zt = nullptr;
  st->waypoint = nullptr;
  st->server_zt = nullptr;
  st->waypoint_host = nullptr;
  if (opts.client == nullptr) {
    // Malformed request: no originating pod. Fail fast instead of
    // dereferencing null below.
    requests_.finish(st, 400, loop_.now());
    return;
  }
  build_request_into(opts, st->req);
  const std::uint16_t src_port =
      opts.src_port != 0 ? opts.src_port : next_port_++;
  st->tuple = net::FiveTuple{opts.client->ip(), service_vip(opts.dst_service),
                             src_port, 80, net::Protocol::kTcp};
  if (next_port_ < 20000) next_port_ = 20000;

  if (cluster_.find_service(opts.dst_service) == nullptr) {
    // Unknown destination service: 404, matching every other dataplane
    // (a missing waypoint for a service that exists stays a 500 below).
    finish_request(st, 404);
    return;
  }
  const auto zt_it = ztunnels_.find(&opts.client->node());
  const auto wp_it = waypoints_.find(opts.dst_service);
  if (zt_it == ztunnels_.end() || wp_it == waypoints_.end()) {
    finish_request(st, 500);
    return;
  }
  st->client_zt = zt_it->second->engine.get();
  st->waypoint = wp_it->second->engine.get();
  st->waypoint_host = wp_it->second->host;

  if (config_.network.dropped(rng_, st->start)) {
    // Lost on the wire: `done` never fires; only a per-try timeout in the
    // retry layer recovers.
    requests_.drop(st);
    return;
  }

  // L4 hop through the client-node ztunnel (mTLS originate).
  st->client_zt->handle_request(
      st->tuple, opts.dst_service, opts.new_connection, st->req,
      [st](proxy::ProxyEngine::RequestOutcome outcome) {
        st->self->on_client_outbound(st, outcome);
      },
      st->tracer());
}

void AmbientMesh::on_client_outbound(
    RequestState* st, const proxy::ProxyEngine::RequestOutcome& outcome) {
  if (!outcome.ok) {
    finish_request(st, outcome.status);
    return;
  }
  const sim::Duration hop1 = config_.network.hop_at(
      st->opts.client->node(), *st->waypoint_host, loop_.now());
  st->wire = loop_.now();
  loop_.post(hop1, [st] { st->self->forward_to_waypoint(st); });
}

void AmbientMesh::forward_to_waypoint(RequestState* st) {
  if (st->trace) {
    st->trace->add("link/client-waypoint", telemetry::Component::kLink,
                   st->wire, loop_.now(), 0, st->req.wire_size());
  }
  // L7 routing at the shared waypoint.
  st->waypoint->handle_request(
      st->tuple, st->opts.dst_service, st->opts.new_connection, st->req,
      [st](proxy::ProxyEngine::RequestOutcome outcome) {
        st->self->on_waypoint_routed(st, outcome);
      },
      st->tracer());
}

void AmbientMesh::on_waypoint_routed(
    RequestState* st, const proxy::ProxyEngine::RequestOutcome& outcome) {
  if (!outcome.ok) {
    finish_request(st, outcome.status);
    return;
  }
  if (outcome.endpoint == nullptr) {
    // 2xx/3xx direct response answered by the waypoint: no upstream
    // endpoint, nothing further to forward.
    finish_request(st, outcome.status);
    return;
  }
  st->endpoint = outcome.endpoint;
  st->target =
      cluster_.find_pod(static_cast<net::PodId>(outcome.endpoint->key));
  if (st->target == nullptr || !st->target->ready()) {
    finish_request(st, 503);
    return;
  }
  st->server_zt = ztunnel_for(st->target->node()).engine.get();
  st->hop2 = config_.network.hop_at(*st->waypoint_host, st->target->node(),
                                    loop_.now());
  st->wire = loop_.now();
  loop_.post(st->hop2, [st] { st->self->deliver_to_server(st); });
}

void AmbientMesh::deliver_to_server(RequestState* st) {
  if (st->trace) {
    st->trace->add("link/waypoint-server", telemetry::Component::kLink,
                   st->wire, loop_.now(), 0, st->req.wire_size());
  }
  // L4 termination at the server-node ztunnel.
  st->server_zt->handle_inbound(
      st->tuple, st->opts.dst_service, st->opts.new_connection,
      st->req.wire_size(),
      [st](bool ok, int status) {
        st->self->on_server_inbound(st, ok, status);
      },
      st->tracer());
}

void AmbientMesh::on_server_inbound(RequestState* st, bool ok, int status) {
  if (!ok) {
    finish_request(st, status);
    return;
  }
  st->app_start = loop_.now();
  st->target->handle_request(st->req, [st](http::Response& resp) {
    AmbientMesh& self = *st->self;
    if (st->trace) {
      st->trace->add("app/" + std::to_string(net::id_value(st->target->id())),
                     telemetry::Component::kApp, st->app_start,
                     self.loop_.now(), 0, resp.wire_size(), resp.status);
    }
    st->resp_bytes = resp.wire_size();
    st->resp_status = resp.status;
    st->hop_back = self.config_.network.hop_at(
        st->opts.client->node(), *st->waypoint_host, self.loop_.now());
    // Response: server zt -> waypoint -> client zt.
    st->server_zt->handle_response(
        st->tuple, st->resp_bytes,
        [st] {
          st->wire = st->self->loop_.now();
          st->self->loop_.post(st->hop2,
                               [st] { st->self->return_via_waypoint(st); });
        },
        st->tracer());
  });
}

void AmbientMesh::return_via_waypoint(RequestState* st) {
  if (st->trace) {
    st->trace->add("link/server-waypoint", telemetry::Component::kLink,
                   st->wire, loop_.now(), 0, st->resp_bytes);
  }
  st->waypoint->handle_response(
      st->tuple, st->resp_bytes,
      [st] {
        st->wire = st->self->loop_.now();
        st->self->loop_.post(st->hop_back,
                             [st] { st->self->return_to_client(st); });
      },
      st->tracer());
}

void AmbientMesh::return_to_client(RequestState* st) {
  if (st->trace) {
    st->trace->add("link/waypoint-client", telemetry::Component::kLink,
                   st->wire, loop_.now(), 0, st->resp_bytes);
  }
  st->client_zt->handle_response(
      st->tuple, st->resp_bytes,
      [st] { st->self->finish_request(st, st->resp_status); }, st->tracer());
}

std::size_t AmbientMesh::ztunnel_config_bytes() const {
  // Workload identities for local pods + service->waypoint map.
  return 256 + 64 * cluster_.pod_count() / std::max<std::size_t>(1, ztunnels_.size()) +
         32 * cluster_.services().size();
}

std::vector<k8s::ConfigTarget> AmbientMesh::routing_update_targets() const {
  std::vector<k8s::ConfigTarget> targets;
  // Waypoints receive the full configuration set, like sidecars do — the
  // scoped-config work landed late in Ambient's evolution (paper ref [16]).
  const std::size_t wp_bytes = full_config_bytes(cluster_);
  for (const auto& [id, wp] : waypoints_) {
    targets.push_back(
        {"waypoint-" + std::to_string(net::id_value(id)), wp_bytes});
  }
  const std::size_t zt_bytes = ztunnel_config_bytes();
  for (const auto& [node, zt] : ztunnels_) {
    targets.push_back(
        {"ztunnel-" + std::to_string(net::id_value(node->id())), zt_bytes});
  }
  return targets;
}

std::vector<k8s::EpochTarget> AmbientMesh::config_epoch_targets(
    const EngineApply& apply) const {
  std::vector<k8s::EpochTarget> targets;
  const std::size_t wp_bytes = full_config_bytes(cluster_);
  auto* self = const_cast<AmbientMesh*>(this);
  for (const auto& [id, wp] : waypoints_) {
    const net::ServiceId service = id;
    targets.push_back(
        {{"waypoint-" + std::to_string(net::id_value(service)), wp_bytes},
         [self, service, apply] {
           auto it = self->waypoints_.find(service);
           if (it != self->waypoints_.end()) apply(*it->second->engine);
         }});
  }
  // Ztunnels carry L4 identity/endpoint state only — no route table to
  // install, so their targets cost southbound bandwidth but apply nothing.
  const std::size_t zt_bytes = ztunnel_config_bytes();
  for (const auto& [node, zt] : ztunnels_) {
    targets.push_back(
        {{"ztunnel-" + std::to_string(net::id_value(node->id())), zt_bytes},
         nullptr});
  }
  return targets;
}

std::vector<k8s::ConfigTarget> AmbientMesh::pod_create_targets(
    const std::vector<k8s::Pod*>& new_pods) const {
  // All ztunnels learn the new workload identities; affected services'
  // waypoints get refreshed endpoint sets.
  std::vector<k8s::ConfigTarget> targets;
  const std::size_t zt_bytes = ztunnel_config_bytes();
  for (const auto& [node, zt] : ztunnels_) {
    targets.push_back(
        {"ztunnel-" + std::to_string(net::id_value(node->id())), zt_bytes});
  }
  std::vector<net::ServiceId> affected;
  for (const k8s::Pod* pod : new_pods) {
    if (std::find(affected.begin(), affected.end(), pod->service()) ==
        affected.end()) {
      affected.push_back(pod->service());
    }
  }
  for (const auto service_id : affected) {
    const k8s::Service* service =
        const_cast<k8s::Cluster&>(cluster_).find_service(service_id);
    targets.push_back(
        {"waypoint-" + std::to_string(net::id_value(service_id)),
         service != nullptr ? service_config_bytes(*service) : 512});
  }
  // Ztunnel workload discovery is per-pod: every new pod triggers an
  // individual identity/cert push to its node's ztunnel.
  for (const k8s::Pod* pod : new_pods) {
    targets.push_back(
        {"ztunnel-workload-" + std::to_string(net::id_value(pod->id())),
         1536});
  }
  return targets;
}

double AmbientMesh::user_cpu_core_seconds() const {
  double total = 0.0;
  for (const auto& [node, zt] : ztunnels_) {
    total += zt->cpu.total_busy_core_seconds();
  }
  for (const auto& [id, wp] : waypoints_) {
    total += wp->cpu.total_busy_core_seconds();
  }
  return total;
}

}  // namespace canal::mesh
