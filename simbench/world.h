// The benchmark's simulated world, built from the library's public headers
// only: the §5.1 testbed shape with any of the five dataplanes, open-loop
// request generators, the completion ledger behind the conservation check,
// and per-layer counters read through public accessors.
//
// Nothing here includes the bench/ harness, so a rewrite of bench/ or of
// the world builders there cannot silently change a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "canal/proxyless.h"
#include "crypto/keyserver.h"
#include "k8s/cluster.h"
#include "mesh/ambient.h"
#include "mesh/dataplane.h"
#include "mesh/istio.h"
#include "net/shard_link.h"
#include "sim/event_loop.h"
#include "telemetry/hdr_histogram.h"

namespace simbench {

namespace sim = canal::sim;
namespace net = canal::net;
namespace k8s = canal::k8s;
namespace mesh = canal::mesh;
namespace core = canal::core;
namespace crypto = canal::crypto;
namespace proxy = canal::proxy;
namespace telemetry = canal::telemetry;
namespace http = canal::http;
namespace lb = canal::lb;

enum class Plane { kNoMesh, kIstio, kAmbient, kCanal, kProxyless };

inline constexpr Plane kAllPlanes[] = {Plane::kNoMesh, Plane::kIstio,
                                       Plane::kAmbient, Plane::kCanal,
                                       Plane::kProxyless};

[[nodiscard]] std::string_view plane_name(Plane plane);

/// World shape. The world seed is fixed by each workload, never taken from
/// --seed: a new seed changes the generated inputs, not the world.
struct WorldOptions {
  std::size_t nodes = 2;
  std::size_t services = 3;
  std::size_t pods_per_service = 10;
  std::size_t node_cores = 8;
  sim::Duration app_service_time = sim::milliseconds(1);
  std::size_t gateway_backends = 2;
  /// 0 keeps the library's GatewayConfig default.
  std::size_t gateway_replicas_per_backend = 0;
  std::size_t gateway_replica_cores = 0;
  std::size_t gateway_backends_per_service = 0;
  std::uint64_t seed = 1;
};

/// One cluster plus the dataplanes built on it. Owns its event loop unless
/// handed a shard-domain loop.
class World {
 public:
  explicit World(const WorldOptions& options);
  World(sim::EventLoop& external_loop, const WorldOptions& options);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Builds `plane` (canal also gets its in-AZ key server; proxyless gets
  /// its own gateway). Each plane is built at most once.
  void build(Plane plane);
  [[nodiscard]] mesh::MeshDataplane& plane(Plane plane);

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] k8s::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] const std::vector<k8s::Service*>& services() const noexcept {
    return services_;
  }
  [[nodiscard]] core::MeshGateway* canal_gateway() noexcept {
    return gateway_.get();
  }
  [[nodiscard]] core::CanalMesh* canal() noexcept { return canal_.get(); }
  [[nodiscard]] crypto::KeyServer* key_server() noexcept {
    return key_server_.get();
  }

  /// Every distinct proxy engine of the built planes.
  [[nodiscard]] std::vector<proxy::ProxyEngine*> engines();
  /// Every distinct gateway backend of the built planes.
  [[nodiscard]] std::vector<core::GatewayBackend*> backends();
  /// Every distinct simulated CPU set (nodes, proxies, replicas, key
  /// server): shared sets are counted once.
  [[nodiscard]] std::vector<sim::CpuSet*> cpu_sets();

 private:
  World(std::unique_ptr<sim::EventLoop> owned, sim::EventLoop* external,
        const WorldOptions& options);
  [[nodiscard]] core::GatewayConfig gateway_config() const;

  // Declaration order is teardown order reversed: planes go before the
  // gateways and cluster they reference, the loop last.
  std::unique_ptr<sim::EventLoop> owned_loop_;
  sim::EventLoop& loop_;
  WorldOptions options_;
  k8s::Cluster cluster_;
  std::vector<k8s::Service*> services_;

  std::unique_ptr<mesh::NoMesh> nomesh_;
  std::unique_ptr<mesh::IstioMesh> istio_;
  std::unique_ptr<mesh::AmbientMesh> ambient_;
  std::unique_ptr<core::MeshGateway> gateway_;
  std::unique_ptr<crypto::KeyServer> key_server_;
  std::unique_ptr<core::CanalMesh> canal_;
  std::unique_ptr<core::MeshGateway> proxyless_gateway_;
  std::unique_ptr<core::ProxylessMesh> proxyless_;
};

/// Per-request completion record for the conservation check: every issued
/// request must complete exactly once. Also accumulates the deterministic
/// simulated outputs that go into the digest. Single-threaded: one ledger
/// per domain (AZ) in sharded runs.
class Ledger {
 public:
  void reserve(std::size_t requests) { completions_.reserve(requests); }
  /// Registers one request about to be sent; returns its id.
  std::uint32_t issue();
  void complete(std::uint32_t id, bool ok, sim::Duration latency);

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t ok() const noexcept { return ok_; }
  /// Requests never completed plus extra completions of one request.
  [[nodiscard]] std::uint64_t violations() const;
  [[nodiscard]] const telemetry::HdrHistogram& latency_us() const noexcept {
    return latency_us_;
  }
  /// The first kSamples latencies, as recorded (unit-cost replay input).
  [[nodiscard]] const std::vector<double>& samples_us() const noexcept {
    return samples_us_;
  }
  static constexpr std::size_t kSamples = 4096;
  /// Folds `other`'s totals in (sharded runs merge per-AZ ledgers in AZ
  /// order); `other`'s violations carry over as a count.
  void merge(const Ledger& other);

 private:
  std::vector<std::uint8_t> completions_;  ///< completions per local id
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t merged_violations_ = 0;
  telemetry::HdrHistogram latency_us_;
  std::vector<double> samples_us_;
};

/// An open-loop request source on the simulated clock: `count` requests one
/// `spacing` apart from `start`, whatever the dataplane does. A pinned flow
/// (src_port != 0) opens its connection on first use and keeps it; a churn
/// flow (src_port == 0) opens and closes a fresh connection per request.
/// Self-rescheduling, so at most one generator event is pending per flow.
struct Flow {
  mesh::MeshDataplane* mesh = nullptr;
  sim::EventLoop* loop = nullptr;
  Ledger* ledger = nullptr;
  k8s::Pod* client = nullptr;
  net::ServiceId dst_service{};
  net::TenantId tenant{};
  std::uint16_t src_port = 0;
  sim::TimePoint start = 0;
  sim::Duration spacing = 0;
  std::uint64_t count = 0;
  std::uint64_t issued = 0;
  // Cross-domain flows (sharded region only): the request rides `forward`
  // to the remote domain, enters its mesh at `ingress`, and the response
  // rides `reverse` home before the ledger records it.
  net::ShardChannel* forward = nullptr;
  net::ShardChannel* reverse = nullptr;
  mesh::MeshDataplane* remote_mesh = nullptr;
  k8s::Pod* ingress = nullptr;
};

/// Posts the flow's first request; later ones re-arm themselves.
void start_flow(Flow& flow);

/// Simulated-output digest: the deterministic results two runs of one
/// binary (and 1-shard vs N-shard region runs) must agree on.
struct Digest {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t fastpath_hits = 0;
  std::uint64_t fastpath_misses = 0;
  std::uint64_t events = 0;

  [[nodiscard]] std::uint64_t hash() const;
  [[nodiscard]] std::string str() const;
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Per-layer counts read through public accessors after a drain.
struct LayerCounts {
  std::uint64_t proxy_fastpath_hits = 0;
  std::uint64_t proxy_fastpath_misses = 0;
  std::uint64_t proxy_handshakes = 0;
  std::uint64_t proxy_sessions_live = 0;
  std::uint64_t gw_fastpath_hits = 0;
  std::uint64_t gw_fastpath_misses = 0;
  double gw_session_occupancy_sum = 0.0;  ///< Σ over backends
  std::uint64_t gw_backends = 0;
  std::uint64_t keyserver_served = 0;
  std::uint64_t keyserver_rejected = 0;
  std::uint64_t remote_signs = 0;
  std::uint64_t fallback_signs = 0;
  std::uint64_t accel_batches = 0;
  std::uint64_t cpu_jobs = 0;

  void add(const LayerCounts& other);
  [[nodiscard]] double gw_session_occupancy() const noexcept {
    return gw_backends == 0
               ? 0.0
               : gw_session_occupancy_sum / static_cast<double>(gw_backends);
  }
};

[[nodiscard]] LayerCounts count_layers(World& world);

}  // namespace simbench
