#include "canal/proxyless.h"

namespace canal::core {

std::optional<std::uint32_t> EniRegistry::allocate(const k8s::Pod& pod) {
  if (const auto it = enis_.find(pod.id()); it != enis_.end()) {
    return it->second;
  }
  auto& count = per_node_[&pod.node()];
  if (count >= config_.max_enis_per_node) return std::nullopt;
  ++count;
  const std::uint32_t id = next_eni_++;
  enis_[pod.id()] = id;
  node_of_[pod.id()] = &pod.node();
  return id;
}

void EniRegistry::release(net::PodId pod) {
  const auto it = enis_.find(pod);
  if (it == enis_.end()) return;
  enis_.erase(it);
  const auto node_it = node_of_.find(pod);
  if (node_it != node_of_.end()) {
    auto& count = per_node_[node_it->second];
    if (count > 0) --count;
    node_of_.erase(node_it);
  }
}

std::size_t EniRegistry::allocated_on(const k8s::Node& node) const {
  const auto it = per_node_.find(&node);
  return it == per_node_.end() ? 0 : it->second;
}

/// Pooled continuation state of one proxyless request: every hop captures
/// only this pointer (DESIGN.md §14).
struct ProxylessMesh::RequestState : mesh::RequestSlot {
  ProxylessMesh* self = nullptr;
  GatewayReplica* replica = nullptr;
  GatewayBackend* backend = nullptr;
  net::Packet packet{};
  net::AzId client_az{};
};

ProxylessMesh::ProxylessMesh(sim::EventLoop& loop, k8s::Cluster& cluster,
                             MeshGateway& gateway, Config config, sim::Rng rng)
    : loop_(loop),
      cluster_(cluster),
      gateway_(gateway),
      config_(config),
      rng_(rng),
      enis_(config.eni) {}

ProxylessMesh::~ProxylessMesh() = default;

std::size_t ProxylessMesh::install() {
  for (const auto& service : cluster_.services()) {
    if (!vnis_.contains(service->id)) {
      const std::uint32_t vni = gateway_.allocate_vni();
      vnis_[service->id] = vni;
      gateway_.register_service(*service, vni);
    }
    if (gateway_.placement_view(service->id).empty()) {
      const net::AzId home_az = service->endpoints.empty()
                                    ? static_cast<net::AzId>(0)
                                    : service->endpoints.front()->node().az();
      gateway_.install_service(*service, home_az);
    }
  }
  std::size_t failed = 0;
  for (const auto& pod : cluster_.pods()) {
    if (pod->phase() == k8s::PodPhase::kTerminated) continue;
    if (!enis_.allocate(*pod)) ++failed;
  }
  return failed;
}

std::uint32_t ProxylessMesh::vni_of(net::ServiceId service) const {
  const auto it = vnis_.find(service);
  return it == vnis_.end() ? 0 : it->second;
}

void ProxylessMesh::apply_endpoint_health(net::ServiceId service,
                                          std::uint64_t endpoint_key,
                                          bool healthy) {
  const std::string cluster_name = mesh::service_cluster_name(service);
  for (GatewayBackend* backend : gateway_.placement_view(service)) {
    for (std::size_t i = 0; i < backend->replica_count(); ++i) {
      if (proxy::UpstreamCluster* c =
              backend->replica(i)->engine().clusters().find(cluster_name)) {
        c->set_endpoint_health(endpoint_key, healthy);
      }
    }
  }
}

std::size_t ProxylessMesh::service_endpoint_total(
    net::ServiceId service) const {
  const k8s::Service* obj = cluster_.find_service(service);
  return obj != nullptr ? obj->endpoints.size() : 0;
}

void ProxylessMesh::finish_request(RequestState* st, int status) {
  if (st->opts.close_after && st->replica != nullptr) {
    st->replica->engine().close_connection(st->tuple);
  }
  requests_.finish(st, status, loop_.now());
}

void ProxylessMesh::send_request(const mesh::RequestOptions& opts,
                                 mesh::RequestCallback done) {
  // Observability is gateway-side only: no on-path trace.
  RequestState* st = requests_.begin(opts, std::move(done), loop_.now(),
                                     /*traced=*/false);
  st->self = this;
  st->replica = nullptr;
  st->backend = nullptr;
  if (opts.client == nullptr) {
    // Malformed request: no originating pod. Fail fast instead of
    // dereferencing null below.
    requests_.finish(st, 400, loop_.now());
    return;
  }
  if (cluster_.find_service(opts.dst_service) == nullptr) {
    // DNS cannot resolve an unknown service to the gateway VIP: 404, not
    // the gateway's unknown-VNI 403 (which is for known-but-unregistered
    // services).
    requests_.finish(st, 404, loop_.now());
    return;
  }
  mesh::build_request_into(opts, st->req);
  const std::uint16_t src_port =
      opts.src_port != 0 ? opts.src_port : next_port_++;
  st->tuple =
      net::FiveTuple{opts.client->ip(), mesh::service_vip(opts.dst_service),
                     src_port, 443, net::Protocol::kTcp};
  if (next_port_ < 40000) next_port_ = 40000;

  // Authentication: the ENI attached to the container vouches for the
  // traffic; pods without one cannot be verified and are rejected.
  if (!enis_.authenticated(opts.client->id())) {
    loop_.post(0, [st] { st->self->finish_request(st, 403); });
    return;
  }

  if (config_.network.dropped(rng_, st->start)) {
    // Lost on the wire: `done` never fires; only a per-try timeout in the
    // retry layer recovers.
    requests_.drop(st);
    return;
  }

  // Client-side TLS in the app's own library when the customer manages
  // certificates; this burns the user's node CPU (there is no proxy).
  sim::Duration app_crypto = 0;
  if (config_.user_managed_certs) {
    app_crypto = config_.app_tls_costs.crypto.symmetric_cost(
        st->req.wire_size() + 512);
    if (opts.new_connection) {
      app_crypto += config_.app_tls_costs.crypto.software_asym_cost;
    }
    app_tls_core_seconds_ += sim::to_seconds(app_crypto);
  }
  opts.client->node().cpu().execute(app_crypto, [st] {
    ProxylessMesh& self = *st->self;
    // DNS already resolves the service name to the gateway VIP; the packet
    // rides the tenant's VXLAN network to the gateway.
    st->packet = net::Packet{};
    st->packet.tuple = st->tuple;
    st->packet.payload_bytes =
        static_cast<std::uint32_t>(st->req.wire_size());
    if (st->opts.new_connection) st->packet.set_flag(net::TcpFlag::kSyn);
    net::VxlanHeader vxlan;
    vxlan.vni = self.vni_of(st->opts.dst_service);
    vxlan.outer = net::FiveTuple{st->opts.client->node().ip(),
                                 net::Ipv4Addr(100, 64, 0, 1),
                                 st->tuple.src_port, 4789,
                                 net::Protocol::kUdp};
    st->packet.vxlan = vxlan;
    st->client_az = st->opts.client->node().az();
    self.loop_.post(self.config_.network.intra_az +
                        self.config_.network.fault_latency(self.loop_.now()),
                    [st] { st->self->forward_to_gateway(st); });
  });
}

void ProxylessMesh::forward_to_gateway(RequestState* st) {
  gateway_.handle_request(
      st->packet, st->opts.new_connection, config_.user_managed_certs,
      st->req, st->client_az,
      [st](GatewayOutcome outcome) {
        st->self->on_gateway_routed(st, outcome);
      });
}

void ProxylessMesh::on_gateway_routed(RequestState* st,
                                      const GatewayOutcome& outcome) {
  // Record the serving replica before any early return: when the L7 engine
  // answered with an error (e.g. a 4xx direct response), it still opened a
  // session that finish_request() must close.
  st->replica = outcome.replica;
  st->backend = outcome.backend;
  if (!outcome.ok) {
    finish_request(st, outcome.status);
    return;
  }
  ++gateway_requests_;
  if (outcome.endpoint == nullptr) {
    // 2xx/3xx direct response answered by the gateway replica: no upstream
    // endpoint, nothing to forward.
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
  // Server side has no proxy either: gateway -> server app.
  loop_.post(config_.network.intra_az +
                 config_.network.fault_latency(loop_.now()),
             [st] { st->self->deliver_to_server(st); });
}

void ProxylessMesh::deliver_to_server(RequestState* st) {
  st->target->handle_request(st->req, [st](http::Response& resp) {
    st->resp_bytes = resp.wire_size();
    st->resp_status = resp.status;
    st->backend->handle_response(
        *st->replica, st->tuple, st->resp_bytes, [st] {
          ProxylessMesh& self = *st->self;
          // Two link hops back (server -> gateway -> client); each pays
          // any latency spike, as canal's two return hops do.
          const sim::Duration hop =
              self.config_.network.intra_az +
              self.config_.network.fault_latency(self.loop_.now());
          self.loop_.post(2 * hop, [st] {
            st->self->finish_request(st, st->resp_status);
          });
        });
  });
}

std::vector<k8s::ConfigTarget> ProxylessMesh::routing_update_targets() const {
  std::vector<k8s::ConfigTarget> targets;
  const std::size_t tenant_config = mesh::full_config_bytes(cluster_);
  for (GatewayBackend* backend :
       const_cast<MeshGateway&>(gateway_).all_backends()) {
    if (!backend->services().empty()) {
      targets.push_back(
          {"gw-backend-" + std::to_string(net::id_value(backend->id())),
           tenant_config});
    }
  }
  return targets;
}

std::vector<k8s::EpochTarget> ProxylessMesh::config_epoch_targets(
    const EngineApply& apply) const {
  std::vector<k8s::EpochTarget> targets;
  const std::size_t tenant_config = mesh::full_config_bytes(cluster_);
  for (GatewayBackend* backend :
       const_cast<MeshGateway&>(gateway_).all_backends()) {
    if (backend->services().empty()) continue;
    targets.push_back(
        {{"gw-backend-" + std::to_string(net::id_value(backend->id())),
          tenant_config},
         [backend, apply] {
           for (std::size_t i = 0; i < backend->replica_count(); ++i) {
             apply(backend->replica(i)->engine());
           }
         }});
  }
  return targets;
}

std::vector<k8s::ConfigTarget> ProxylessMesh::pod_create_targets(
    const std::vector<k8s::Pod*>& new_pods) const {
  std::vector<k8s::ConfigTarget> targets;
  std::vector<net::ServiceId> affected;
  for (const k8s::Pod* pod : new_pods) {
    if (std::find(affected.begin(), affected.end(), pod->service()) ==
        affected.end()) {
      affected.push_back(pod->service());
    }
    // DNS record + ENI registration per pod.
    targets.push_back(
        {"dns-eni-" + std::to_string(net::id_value(pod->id())), 256});
  }
  for (const auto service_id : affected) {
    const k8s::Service* service = gateway_.service_object(service_id);
    for (GatewayBackend* backend : gateway_.placement_view(service_id)) {
      targets.push_back(
          {"gw-backend-" + std::to_string(net::id_value(backend->id())),
           service != nullptr ? mesh::service_config_bytes(*service) : 512});
    }
  }
  return targets;
}

double ProxylessMesh::user_cpu_core_seconds() const {
  return app_tls_core_seconds_;
}

double ProxylessMesh::total_cpu_core_seconds() const {
  return app_tls_core_seconds_ + gateway_.total_cpu_core_seconds();
}

}  // namespace canal::core
