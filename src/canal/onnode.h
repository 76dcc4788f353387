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
};

}  // namespace canal::core
