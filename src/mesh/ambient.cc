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

void AmbientMesh::send_request(const RequestOptions& opts,
                               RequestCallback done) {
  struct State {
    http::Request req;
    net::FiveTuple tuple;
    sim::TimePoint start = 0;
    RequestOptions opts;
    RequestCallback done;
    proxy::ProxyEngine* client_zt = nullptr;
    proxy::ProxyEngine* waypoint = nullptr;
    proxy::ProxyEngine* server_zt = nullptr;
    const k8s::Node* waypoint_host = nullptr;
    proxy::UpstreamEndpoint* endpoint = nullptr;
    k8s::Pod* target = nullptr;
    std::shared_ptr<telemetry::Trace> trace;
    [[nodiscard]] telemetry::Trace* tracer() const { return trace.get(); }
  };
  auto st = std::make_shared<State>();
  st->start = loop_.now();
  st->opts = opts;
  st->done = std::move(done);
  const net::TenantId tenant = effective_tenant(opts);
  if (opts.trace) {
    st->trace = std::make_shared<telemetry::Trace>();
    st->trace->set_tenant(tenant);
  }
  if (opts.client == nullptr) {
    // Malformed request: no originating pod. Fail fast instead of
    // dereferencing null below.
    RequestResult result;
    result.status = 400;
    result.tenant = tenant;
    result.trace = st->trace;
    st->done(result);
    return;
  }
  st->req = build_request(opts);
  const std::uint16_t src_port =
      opts.src_port != 0 ? opts.src_port : next_port_++;
  st->tuple = net::FiveTuple{opts.client->ip(), service_vip(opts.dst_service),
                             src_port, 80, net::Protocol::kTcp};
  if (next_port_ < 20000) next_port_ = 20000;

  auto finish = [this, st, tenant](int status) {
    if (st->endpoint != nullptr && st->endpoint->active_requests > 0) {
      --st->endpoint->active_requests;
    }
    if (st->opts.close_after) {
      if (st->client_zt) st->client_zt->close_connection(st->tuple);
      if (st->waypoint) st->waypoint->close_connection(st->tuple);
      if (st->server_zt) st->server_zt->close_connection(st->tuple);
    }
    RequestResult result;
    result.status = status;
    result.latency = loop_.now() - st->start;
    if (st->target != nullptr) result.served_by = st->target->id();
    result.tenant = tenant;
    result.trace = st->trace;
    st->done(result);
  };

  if (cluster_.find_service(opts.dst_service) == nullptr) {
    // Unknown destination service: 404, matching every other dataplane
    // (a missing waypoint for a service that exists stays a 500 below).
    finish(404);
    return;
  }
  const auto zt_it = ztunnels_.find(&opts.client->node());
  const auto wp_it = waypoints_.find(opts.dst_service);
  if (zt_it == ztunnels_.end() || wp_it == waypoints_.end()) {
    finish(500);
    return;
  }
  st->client_zt = zt_it->second->engine.get();
  st->waypoint = wp_it->second->engine.get();
  st->waypoint_host = wp_it->second->host;

  if (config_.network.dropped(rng_, st->start)) {
    // Lost on the wire: `done` never fires; only a per-try timeout in the
    // retry layer recovers.
    return;
  }

  // L4 hop through the client-node ztunnel (mTLS originate).
  st->client_zt->handle_request(
      st->tuple, opts.dst_service, opts.new_connection, st->req,
      [this, st, finish](proxy::ProxyEngine::RequestOutcome outcome) mutable {
        if (!outcome.ok) {
          finish(outcome.status);
          return;
        }
        const sim::Duration hop1 = config_.network.hop_at(
            st->opts.client->node(), *st->waypoint_host, loop_.now());
        const sim::TimePoint wire1 = loop_.now();
        loop_.post(hop1, [this, st, finish, wire1]() mutable {
          if (st->trace) {
            st->trace->add("link/client-waypoint", telemetry::Component::kLink,
                           wire1, loop_.now(), 0, st->req.wire_size());
          }
          // L7 routing at the shared waypoint.
          st->waypoint->handle_request(
              st->tuple, st->opts.dst_service, st->opts.new_connection,
              st->req,
              [this, st,
               finish](proxy::ProxyEngine::RequestOutcome outcome) mutable {
                if (!outcome.ok) {
                  finish(outcome.status);
                  return;
                }
                if (outcome.endpoint == nullptr) {
                  // 2xx/3xx direct response answered by the waypoint: no
                  // upstream endpoint, nothing further to forward.
                  finish(outcome.status);
                  return;
                }
                st->endpoint = outcome.endpoint;
                st->target = cluster_.find_pod(
                    static_cast<net::PodId>(outcome.endpoint->key));
                if (st->target == nullptr || !st->target->ready()) {
                  finish(503);
                  return;
                }
                st->server_zt = ztunnel_for(st->target->node()).engine.get();
                const sim::Duration hop2 = config_.network.hop_at(
                    *st->waypoint_host, st->target->node(), loop_.now());
                const sim::TimePoint wire2 = loop_.now();
                loop_.post(hop2, [this, st, finish, hop2,
                                      wire2]() mutable {
                  if (st->trace) {
                    st->trace->add("link/waypoint-server",
                                   telemetry::Component::kLink, wire2,
                                   loop_.now(), 0, st->req.wire_size());
                  }
                  // L4 termination at the server-node ztunnel.
                  st->server_zt->handle_inbound(
                      st->tuple, st->opts.dst_service,
                      st->opts.new_connection, st->req.wire_size(),
                      [this, st, finish, hop2](bool ok, int status) mutable {
                        if (!ok) {
                          finish(status);
                          return;
                        }
                        const sim::TimePoint app_start = loop_.now();
                        st->target->handle_request(
                            st->req,
                            [this, st, finish, hop2,
                             app_start](http::Response& resp) mutable {
                              if (st->trace) {
                                st->trace->add(
                                    "app/" + std::to_string(net::id_value(
                                                 st->target->id())),
                                    telemetry::Component::kApp, app_start,
                                    loop_.now(), 0, resp.wire_size(),
                                    resp.status);
                              }
                              const std::uint64_t bytes = resp.wire_size();
                              const int status = resp.status;
                              const sim::Duration hop1 =
                                  config_.network.hop_at(
                                      st->opts.client->node(),
                                      *st->waypoint_host, loop_.now());
                              // Response: server zt -> waypoint -> client zt.
                              st->server_zt->handle_response(
                                  st->tuple, bytes,
                                  [this, st, finish, bytes, status, hop1,
                                   hop2]() mutable {
                                    const sim::TimePoint wire3 = loop_.now();
                                    loop_.post(hop2, [this, st, finish,
                                                          bytes, status, hop1,
                                                          wire3]() mutable {
                                      if (st->trace) {
                                        st->trace->add(
                                            "link/server-waypoint",
                                            telemetry::Component::kLink, wire3,
                                            loop_.now(), 0, bytes);
                                      }
                                      st->waypoint->handle_response(
                                          st->tuple, bytes,
                                          [this, st, finish, bytes, status,
                                           hop1]() mutable {
                                            const sim::TimePoint wire4 =
                                                loop_.now();
                                            loop_.post(
                                                hop1,
                                                [this, st, finish, bytes,
                                                 status, wire4]() mutable {
                                                  if (st->trace) {
                                                    st->trace->add(
                                                        "link/waypoint-client",
                                                        telemetry::Component::
                                                            kLink,
                                                        wire4, loop_.now(), 0,
                                                        bytes);
                                                  }
                                                  st->client_zt
                                                      ->handle_response(
                                                          st->tuple, bytes,
                                                          [finish, status]() mutable {
                                                            finish(status);
                                                          },
                                                          st->tracer());
                                                });
                                          },
                                          st->tracer());
                                    });
                                  },
                                  st->tracer());
                            });
                      },
                      st->tracer());
                });
              },
              st->tracer());
        });
      },
      st->tracer());
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
