// Canal's minimal-feature on-node proxy (§4.1).
//
// Keeps only what cannot be deployed remotely with functional equivalence:
// encryption/authentication for the zero-trust network (traffic must be
// encrypted before it leaves the user node) and L4 observability. Traffic
// is redirected into the proxy via eBPF socket-to-socket moves with a
// Nagle-style aggregator restoring small-packet batching (§4.1.2), and the
// asymmetric half of mTLS is offloaded to the shared in-AZ key server
// (§4.1.3) with software fallback.
#pragma once

#include <cstdint>
#include <memory>

#include "crypto/keyserver.h"
#include "k8s/objects.h"
#include "proxy/engine.h"
#include "proxy/nagle.h"
#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"

namespace canal::core {

class OnNodeProxy {
 public:
  struct Config {
    std::size_t cores = 2;
    proxy::ProxyCostModel costs = default_costs();
    bool mtls = true;
    /// SPIFFE identity used for key-server requests.
    std::string identity;

    [[nodiscard]] static proxy::ProxyCostModel default_costs();
  };

  OnNodeProxy(sim::EventLoop& loop, const k8s::Node& node, Config config,
              sim::Rng rng);

  [[nodiscard]] const k8s::Node& node() const noexcept { return node_; }
  [[nodiscard]] proxy::ProxyEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] sim::CpuSet& cpu() noexcept { return cpu_; }
  [[nodiscard]] const sim::CpuSet& cpu() const noexcept { return cpu_; }
  [[nodiscard]] crypto::KeyServerClient& key_client() noexcept {
    return *key_client_;
  }

  /// Connects the proxy to the in-AZ key server (nullptr => software
  /// fallback path).
  void attach_key_server(crypto::KeyServer* server);

  /// L4 observability: per-pod traffic accounting (the on-node proxy must
  /// label traffic per pod since it is shared by all pods on the node).
  void record_pod_traffic(net::PodId pod, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t pod_traffic(net::PodId pod) const;
  [[nodiscard]] std::uint64_t total_observed_bytes() const noexcept {
    return total_bytes_;
  }

  /// Minimal config footprint for the controller (identity material only —
  /// no traffic-control rules live here).
  [[nodiscard]] static constexpr std::size_t config_bytes() { return 192; }

 private:
  sim::EventLoop& loop_;
  const k8s::Node& node_;
  Config config_;
  sim::CpuSet cpu_;
  std::unique_ptr<crypto::KeyServerClient> key_client_;
  /// Engine continuations parked while their handshake signs.
  sim::Pool<sim::Callback> handshakes_;
  std::unique_ptr<proxy::ProxyEngine> engine_;
  sim::FlatHashMap<net::PodId, std::uint64_t, net::IdHash> pod_bytes_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace canal::core
