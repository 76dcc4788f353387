// Istio-style per-pod sidecar mesh (the paper's primary baseline, §2.1).
//
// Every pod carries a full-featured L7 sidecar. Traffic is redirected into
// the sidecar with iptables on both ends, so each request crosses two L7
// proxies. Sidecars draw CPU from a per-node pool (modeling pod-resource
// consumption on the node), and the control plane must push the *full*
// configuration set to *every* sidecar on any change — the O(N^2)
// southbound blowup of §2.1.
#pragma once

#include <memory>

#include "crypto/accelerator.h"
#include "mesh/dataplane.h"
#include "sim/flat_map.h"
#include "sim/rng.h"

namespace canal::mesh {

class IstioMesh final : public MeshDataplane {
 public:
  struct Config {
    /// CPU pool per node shared by that node's sidecars.
    std::size_t sidecar_cores_per_node = 4;
    /// Sidecar processing cost profile (Envoy-like, iptables redirected).
    proxy::ProxyCostModel costs = default_sidecar_costs();
    NetworkProfile network;
    bool mtls = true;

    [[nodiscard]] static proxy::ProxyCostModel default_sidecar_costs();
  };

  IstioMesh(sim::EventLoop& loop, k8s::Cluster& cluster, Config config,
            sim::Rng rng);
  ~IstioMesh() override;

  /// Creates sidecars for all current pods and installs full config.
  void install();

  /// Injects a sidecar for a newly created pod.
  void add_sidecar(k8s::Pod& pod);

  /// Re-installs endpoint/route config into every sidecar (what a config
  /// push achieves once delivered).
  void reinstall_all();

  [[nodiscard]] std::string_view name() const noexcept override {
    return "istio";
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
    return sidecars_.size();
  }

  [[nodiscard]] proxy::ProxyEngine* sidecar_engine(net::PodId pod);

 protected:
  /// Outlier ejection reaches every sidecar's endpoint pool (each sidecar
  /// holds the full config, so each has its own copy of the cluster).
  void apply_endpoint_health(net::ServiceId service,
                             std::uint64_t endpoint_key,
                             bool healthy) override;
  [[nodiscard]] std::size_t service_endpoint_total(
      net::ServiceId service) const override;

 private:
  struct NodePool {
    explicit NodePool(sim::EventLoop& loop, std::size_t cores)
        : cpu(loop, cores, sim::CpuCore::kNoHistory) {}
    sim::CpuSet cpu;
    std::unique_ptr<crypto::AsymmetricAccelerator> accel;
  };
  struct Sidecar {
    std::unique_ptr<proxy::ProxyEngine> engine;
    k8s::Pod* pod = nullptr;
  };

  NodePool& pool_for(const k8s::Node& node);

  sim::EventLoop& loop_;
  k8s::Cluster& cluster_;
  Config config_;
  sim::Rng rng_;
  // Flat tables (DESIGN.md §14): sidecar lookup is per-request. Ordered so
  // config-push target lists and CPU sums iterate in a fixed key order.
  sim::FlatOrderedMap<const k8s::Node*, std::unique_ptr<NodePool>> pools_;
  sim::FlatOrderedMap<net::PodId, Sidecar> sidecars_;
  std::uint16_t next_port_ = 10000;
};

}  // namespace canal::mesh
