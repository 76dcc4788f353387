// Ambient-style sidecarless mesh (§2.2): a per-node L4 proxy ("ztunnel")
// plus a per-service shared L7 proxy ("waypoint").
//
// Requests traverse client ztunnel (L4, mTLS originate) -> the destination
// service's waypoint (L7 routing) -> server ztunnel (L4, mTLS terminate).
// Both proxy layers still live inside the user cluster and consume user
// CPU; the control plane manages O(nodes + services) proxies.
#pragma once

#include <memory>

#include "crypto/accelerator.h"
#include "mesh/dataplane.h"
#include "sim/flat_map.h"
#include "sim/rng.h"

namespace canal::mesh {

class AmbientMesh final : public MeshDataplane {
 public:
  struct Config {
    std::size_t ztunnel_cores = 2;
    std::size_t waypoint_cores = 2;
    proxy::ProxyCostModel ztunnel_costs = default_ztunnel_costs();
    proxy::ProxyCostModel waypoint_costs = default_waypoint_costs();
    NetworkProfile network;
    bool mtls = true;

    [[nodiscard]] static proxy::ProxyCostModel default_ztunnel_costs();
    [[nodiscard]] static proxy::ProxyCostModel default_waypoint_costs();
  };

  AmbientMesh(sim::EventLoop& loop, k8s::Cluster& cluster, Config config,
              sim::Rng rng);
  ~AmbientMesh() override;

  /// Creates ztunnels for all nodes and waypoints for all services.
  void install();

  /// Ensures proxies exist for a new pod's node/service and refreshes the
  /// waypoint endpoint pool.
  void on_pod_created(k8s::Pod& pod);

  /// Re-installs route/endpoint config everywhere.
  void reinstall_all();

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ambient";
  }
  void send_request(const RequestOptions& opts, RequestCallback done) override;
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
  [[nodiscard]] double total_cpu_core_seconds() const override {
    return user_cpu_core_seconds();
  }
  [[nodiscard]] std::size_t proxy_count() const override {
    return ztunnels_.size() + waypoints_.size();
  }

  [[nodiscard]] proxy::ProxyEngine* ztunnel_engine(const k8s::Node& node);
  [[nodiscard]] proxy::ProxyEngine* waypoint_engine(net::ServiceId service);

 protected:
  /// Outlier ejection reaches the service's waypoint (the only L7 LB set
  /// in the ambient path; ztunnels are L4 and hold no endpoint pools).
  void apply_endpoint_health(net::ServiceId service,
                             std::uint64_t endpoint_key,
                             bool healthy) override;
  [[nodiscard]] std::size_t service_endpoint_total(
      net::ServiceId service) const override;

 private:
  struct Ztunnel {
    explicit Ztunnel(sim::EventLoop& loop, std::size_t cores)
        : cpu(loop, cores, sim::CpuCore::kNoHistory) {}
    sim::CpuSet cpu;
    std::unique_ptr<crypto::AsymmetricAccelerator> accel;
    std::unique_ptr<proxy::ProxyEngine> engine;
  };
  struct Waypoint {
    explicit Waypoint(sim::EventLoop& loop, std::size_t cores)
        : cpu(loop, cores, sim::CpuCore::kNoHistory) {}
    sim::CpuSet cpu;
    std::unique_ptr<crypto::AsymmetricAccelerator> accel;
    std::unique_ptr<proxy::ProxyEngine> engine;
    const k8s::Node* host = nullptr;
  };

  /// Pooled request slot (DESIGN.md §14), defined in the .cc.
  struct RequestState;

  Ztunnel& ztunnel_for(const k8s::Node& node);

  // send_request's hop chain, one member per async boundary (request out:
  // client ztunnel -> waypoint -> server ztunnel -> pod; response back).
  void on_client_outbound(RequestState* st,
                          const proxy::ProxyEngine::RequestOutcome& outcome);
  void forward_to_waypoint(RequestState* st);
  void on_waypoint_routed(RequestState* st,
                          const proxy::ProxyEngine::RequestOutcome& outcome);
  void deliver_to_server(RequestState* st);
  void on_server_inbound(RequestState* st, bool ok, int status);
  void return_via_waypoint(RequestState* st);
  void return_to_client(RequestState* st);
  void finish_request(RequestState* st, int status);
  Waypoint& waypoint_for(const k8s::Service& service);
  [[nodiscard]] std::size_t ztunnel_config_bytes() const;

  sim::EventLoop& loop_;
  k8s::Cluster& cluster_;
  Config config_;
  sim::Rng rng_;
  // Flat tables (DESIGN.md §14): ztunnel/waypoint lookup is per-request.
  // Ordered so config-push target lists and CPU sums iterate in a fixed
  // key order.
  sim::FlatOrderedMap<const k8s::Node*, std::unique_ptr<Ztunnel>> ztunnels_;
  sim::FlatOrderedMap<net::ServiceId, std::unique_ptr<Waypoint>> waypoints_;
  std::size_t waypoint_placement_cursor_ = 0;
  std::uint16_t next_port_ = 20000;
  RequestSlots<RequestState> requests_;
};

}  // namespace canal::mesh
