// The Canal Mesh dataplane: on-node proxies + the centralized multi-tenant
// mesh gateway + shared key servers (Fig 6).
//
// Request path (hairpin through the gateway, Appendix A):
//   client app -> on-node proxy (eBPF redirect, L4, mTLS originate via key
//   server) -> mesh gateway (VNI->service-ID at the vSwitch, ECMP,
//   redirector, L7 routing, mTLS terminate) -> server-node on-node proxy
//   (mTLS terminate) -> server app; responses retrace the path.
#pragma once

#include <memory>

#include "canal/gateway.h"
#include "canal/onnode.h"
#include "crypto/keyserver.h"
#include "mesh/dataplane.h"
#include "sim/flat_map.h"

namespace canal::core {

class CanalMesh final : public mesh::MeshDataplane {
 public:
  struct Config {
    OnNodeProxy::Config onnode;
    mesh::NetworkProfile network;
    bool https = true;
  };

  CanalMesh(sim::EventLoop& loop, k8s::Cluster& cluster, MeshGateway& gateway,
            Config config, sim::Rng rng);
  ~CanalMesh() override;

  /// Creates on-node proxies, assigns VNIs, places every service on the
  /// gateway (home AZ = the AZ of the service's first endpoint).
  void install();

  /// Attaches the in-AZ key server to every on-node proxy in that AZ and
  /// to gateway replicas (current and future) in that AZ.
  void attach_key_server(net::AzId az, crypto::KeyServer* server);

  void on_pod_created(k8s::Pod& pod);
  void reinstall_all();

  [[nodiscard]] std::string_view name() const noexcept override {
    return "canal";
  }
  void send_request(const mesh::RequestOptions& opts,
                    mesh::RequestCallback done) override;
  [[nodiscard]] sim::EventLoop& event_loop() noexcept override {
    return loop_;
  }
  [[nodiscard]] std::vector<k8s::ConfigTarget> routing_update_targets()
      const override;
  [[nodiscard]] std::vector<k8s::EpochTarget> config_epoch_targets(
      const EngineApply& apply) const override;
  [[nodiscard]] std::vector<k8s::ConfigTarget> pod_create_targets(
      const std::vector<k8s::Pod*>& new_pods) const override;
  [[nodiscard]] double user_cpu_core_seconds() const override;
  [[nodiscard]] double total_cpu_core_seconds() const override;
  [[nodiscard]] std::size_t proxy_count() const override;

  [[nodiscard]] OnNodeProxy* proxy_for(const k8s::Node& node);
  [[nodiscard]] MeshGateway& gateway() noexcept { return gateway_; }
  [[nodiscard]] std::uint32_t vni_of(net::ServiceId service) const;

 protected:
  /// Outlier ejection reaches every gateway replica hosting the service
  /// (all backends in its placement), bumping each replica engine's
  /// cluster version so the flow fastpath revalidates.
  void apply_endpoint_health(net::ServiceId service,
                             std::uint64_t endpoint_key,
                             bool healthy) override;
  [[nodiscard]] std::size_t service_endpoint_total(
      net::ServiceId service) const override;

 private:
  /// Pooled per-request continuation state (DESIGN.md §14): the whole
  /// client→gateway→server→response chain captures only this pointer, so
  /// every hop's closure stays in std::function's small buffer. Defined in
  /// the .cc; the out-of-line destructor keeps Pool<> happy with the
  /// incomplete type here.
  struct RequestState;

  OnNodeProxy& ensure_proxy(const k8s::Node& node);

  // send_request's hop chain, one member per async boundary (request out:
  // client proxy -> gateway -> server proxy -> pod; response back).
  void forward_to_gateway(RequestState* st);
  void deliver_to_server(RequestState* st);
  void return_via_gateway(RequestState* st);
  void return_to_client(RequestState* st);
  void finish_request(RequestState* st, int status);

  sim::EventLoop& loop_;
  k8s::Cluster& cluster_;
  MeshGateway& gateway_;
  Config config_;
  sim::Rng rng_;
  // Flat tables (DESIGN.md §14): proxy lookup is per-request. Ordered so
  // config installs and CPU sums iterate in a fixed key order.
  sim::FlatOrderedMap<const k8s::Node*, std::unique_ptr<OnNodeProxy>>
      proxies_;
  sim::FlatHashMap<net::ServiceId, std::uint32_t, net::IdHash> vnis_;
  sim::FlatHashMap<std::uint16_t, crypto::KeyServer*> key_servers_;
  mesh::RequestSlots<RequestState> requests_;
  std::uint16_t next_port_ = 30000;
};

}  // namespace canal::core
