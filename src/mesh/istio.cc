#include "mesh/istio.h"

namespace canal::mesh {

proxy::ProxyCostModel IstioMesh::Config::default_sidecar_costs() {
  proxy::ProxyCostModel costs;
  // Full Envoy filter chain with telemetry: heavier per-request L7 work
  // than the slimmed-down waypoint/gateway profiles.
  costs.l7_process = sim::microseconds(900);
  costs.l7_response_process = sim::microseconds(450);
  costs.kernel_pass = sim::microseconds(18);
  costs.context_switch = sim::microseconds(5);
  return costs;
}

IstioMesh::IstioMesh(sim::EventLoop& loop, k8s::Cluster& cluster,
                     Config config, sim::Rng rng)
    : loop_(loop), cluster_(cluster), config_(config), rng_(rng) {}

IstioMesh::~IstioMesh() = default;

IstioMesh::NodePool& IstioMesh::pool_for(const k8s::Node& node) {
  auto& slot = pools_[&node];
  if (!slot) {
    slot = std::make_unique<NodePool>(loop_, config_.sidecar_cores_per_node);
    // Sidecars have no crypto hardware: software asymmetric path.
    slot->accel = std::make_unique<crypto::AsymmetricAccelerator>(
        loop_, slot->cpu, crypto::AccelMode::kSoftware, config_.costs.crypto);
  }
  return *slot;
}

void IstioMesh::add_sidecar(k8s::Pod& pod) {
  NodePool& pool = pool_for(pod.node());
  proxy::ProxyEngine::Config engine_config;
  engine_config.name = "sidecar-" + std::to_string(net::id_value(pod.id()));
  engine_config.l7 = true;
  engine_config.redirect = proxy::RedirectMode::kIptables;
  engine_config.mtls = config_.mtls;
  engine_config.costs = config_.costs;
  // Full sidecar chains do most telemetry/logging work off the request
  // path; it burns CPU without adding serialized latency.
  engine_config.off_path_fraction = 0.66;
  auto engine = std::make_unique<proxy::ProxyEngine>(
      loop_, pool.cpu, engine_config, rng_.fork());
  engine->set_handshake_executor(
      [accel = pool.accel.get()](sim::Callback done) {
        accel->submit(std::move(done));
      });
  install_full_config(*engine, cluster_);
  sidecars_[pod.id()] = Sidecar{std::move(engine), &pod};
}

void IstioMesh::install() {
  for (const auto& pod : cluster_.pods()) {
    if (pod->phase() != k8s::PodPhase::kTerminated &&
        !sidecars_.contains(pod->id())) {
      add_sidecar(*pod);
    }
  }
}

void IstioMesh::reinstall_all() {
  for (auto& [id, sidecar] : sidecars_) {
    install_full_config(*sidecar.engine, cluster_);
  }
}

proxy::ProxyEngine* IstioMesh::sidecar_engine(net::PodId pod) {
  const auto it = sidecars_.find(pod);
  return it == sidecars_.end() ? nullptr : it->second.engine.get();
}

void IstioMesh::apply_endpoint_health(net::ServiceId service,
                                      std::uint64_t endpoint_key,
                                      bool healthy) {
  const std::string cluster_name = service_cluster_name(service);
  for (auto& [id, sidecar] : sidecars_) {
    if (proxy::UpstreamCluster* c =
            sidecar.engine->clusters().find(cluster_name)) {
      c->set_endpoint_health(endpoint_key, healthy);
    }
  }
}

std::size_t IstioMesh::service_endpoint_total(net::ServiceId service) const {
  const k8s::Service* obj = cluster_.find_service(service);
  return obj != nullptr ? obj->endpoints.size() : 0;
}

void IstioMesh::send_request(const RequestOptions& opts,
                             RequestCallback done) {
  struct State {
    http::Request req;
    net::FiveTuple tuple;
    sim::TimePoint start = 0;
    RequestOptions opts;
    RequestCallback done;
    proxy::ProxyEngine* client_sc = nullptr;
    proxy::ProxyEngine* server_sc = nullptr;
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
  if (next_port_ < 10000) next_port_ = 10000;

  auto finish = [this, st, tenant](int status) {
    if (st->endpoint != nullptr && st->endpoint->active_requests > 0) {
      --st->endpoint->active_requests;
    }
    if (st->opts.close_after) {
      if (st->client_sc) st->client_sc->close_connection(st->tuple);
      if (st->server_sc) st->server_sc->close_connection(st->tuple);
    }
    RequestResult result;
    result.status = status;
    result.latency = loop_.now() - st->start;
    if (st->target != nullptr) result.served_by = st->target->id();
    result.tenant = tenant;
    result.trace = st->trace;
    st->done(result);
  };

  const auto sc_it = sidecars_.find(opts.client->id());
  if (sc_it == sidecars_.end()) {
    finish(500);
    return;
  }
  st->client_sc = sc_it->second.engine.get();

  if (config_.network.dropped(rng_, st->start)) {
    // Lost on the wire: `done` never fires; only a per-try timeout in the
    // retry layer recovers. One loss draw per attempt keeps runs
    // reproducible for a fixed seed.
    return;
  }

  // Outbound: app -> (iptables) client sidecar: L7 route + endpoint pick.
  st->client_sc->handle_request(
      st->tuple, opts.dst_service, opts.new_connection, st->req,
      [this, st, finish](proxy::ProxyEngine::RequestOutcome outcome) mutable {
        if (!outcome.ok) {
          finish(outcome.status);
          return;
        }
        if (outcome.endpoint == nullptr) {
          // 2xx/3xx direct response answered by the sidecar itself: there
          // is no upstream endpoint and nothing further to forward.
          finish(outcome.status);
          return;
        }
        st->endpoint = outcome.endpoint;
        st->target =
            cluster_.find_pod(static_cast<net::PodId>(outcome.endpoint->key));
        if (st->target == nullptr || !st->target->ready()) {
          finish(503);
          return;
        }
        const auto server_it = sidecars_.find(st->target->id());
        if (server_it == sidecars_.end()) {
          finish(503);
          return;
        }
        st->server_sc = server_it->second.engine.get();
        const sim::Duration hop = config_.network.hop_at(
            st->opts.client->node(), st->target->node(), loop_.now());

        // Wire transit, then inbound through the server-side sidecar.
        const sim::TimePoint wire_out = loop_.now();
        loop_.post(hop, [this, st, finish, hop, wire_out]() mutable {
          if (st->trace) {
            st->trace->add("link/client-server", telemetry::Component::kLink,
                           wire_out, loop_.now(), 0, st->req.wire_size());
          }
          st->server_sc->handle_inbound(
              st->tuple, st->opts.dst_service, st->opts.new_connection,
              st->req.wire_size(),
              [this, st, finish, hop](bool ok, int status) mutable {
                if (!ok) {
                  finish(status);
                  return;
                }
                const sim::TimePoint app_start = loop_.now();
                st->target->handle_request(
                    st->req, [this, st, finish, hop,
                              app_start](http::Response& resp) mutable {
                      if (st->trace) {
                        st->trace->add(
                            "app/" +
                                std::to_string(net::id_value(st->target->id())),
                            telemetry::Component::kApp, app_start, loop_.now(),
                            0, resp.wire_size(), resp.status);
                      }
                      const std::uint64_t resp_bytes = resp.wire_size();
                      const int status = resp.status;
                      // Response: server sidecar -> wire -> client sidecar.
                      st->server_sc->handle_response(
                          st->tuple, resp_bytes,
                          [this, st, finish, hop, resp_bytes, status]() mutable {
                            const sim::TimePoint wire_back = loop_.now();
                            loop_.post(hop, [this, st, finish, resp_bytes,
                                                 status, wire_back]() mutable {
                              if (st->trace) {
                                st->trace->add("link/server-client",
                                               telemetry::Component::kLink,
                                               wire_back, loop_.now(), 0,
                                               resp_bytes);
                              }
                              st->client_sc->handle_response(
                                  st->tuple, resp_bytes,
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
}

std::vector<k8s::ConfigTarget> IstioMesh::routing_update_targets() const {
  // Any update -> full config to every sidecar.
  std::vector<k8s::ConfigTarget> targets;
  const std::size_t bytes = full_config_bytes(cluster_);
  targets.reserve(sidecars_.size());
  for (const auto& [id, sidecar] : sidecars_) {
    targets.push_back({"sidecar-" + std::to_string(net::id_value(id)), bytes});
  }
  return targets;
}

std::vector<k8s::EpochTarget> IstioMesh::config_epoch_targets(
    const EngineApply& apply) const {
  // One epoch target per sidecar; the apply thunk resolves the sidecar by
  // pod id at delivery time so a pod killed mid-flight is simply skipped.
  std::vector<k8s::EpochTarget> targets;
  const std::size_t bytes = full_config_bytes(cluster_);
  targets.reserve(sidecars_.size());
  auto* self = const_cast<IstioMesh*>(this);
  for (const auto& [id, sidecar] : sidecars_) {
    const net::PodId pod_id = id;
    targets.push_back(
        {{"sidecar-" + std::to_string(net::id_value(pod_id)), bytes},
         [self, pod_id, apply] {
           auto it = self->sidecars_.find(pod_id);
           if (it != self->sidecars_.end()) apply(*it->second.engine);
         }});
  }
  return targets;
}

std::vector<k8s::ConfigTarget> IstioMesh::pod_create_targets(
    const std::vector<k8s::Pod*>& new_pods) const {
  // New sidecars need the full config; every existing sidecar receives the
  // full set again (Istio pushes complete configurations, §2.1).
  std::vector<k8s::ConfigTarget> targets = routing_update_targets();
  const std::size_t bytes = full_config_bytes(cluster_);
  for (const k8s::Pod* pod : new_pods) {
    if (!sidecars_.contains(pod->id())) {
      targets.push_back(
          {"sidecar-" + std::to_string(net::id_value(pod->id())), bytes});
    }
  }
  return targets;
}

double IstioMesh::user_cpu_core_seconds() const {
  double total = 0.0;
  for (const auto& [node, pool] : pools_) {
    total += pool->cpu.total_busy_core_seconds();
  }
  return total;
}

}  // namespace canal::mesh
