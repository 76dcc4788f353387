// Kubernetes-like API objects: nodes, pods, services.
//
// The cluster model is intentionally small — just enough mechanism for the
// phenomena the paper studies: pod lifecycle (creation → config-ready →
// pingable), per-node CPU shared between apps and any co-located proxies,
// and service/endpoint bookkeeping that drives mesh configuration size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "http/message.h"
#include "net/address.h"
#include "net/ids.h"
#include "sim/arena.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace canal::k8s {

/// How a pod's application behaves under requests. The bimodal service-time
/// mixture reproduces the production latency distribution of Fig 24
/// (modes at 40–50 ms and 100–200 ms).
struct AppProfile {
  /// Probability a request takes the "fast" mode.
  double fast_fraction = 0.6;
  sim::Duration fast_service_mean = sim::milliseconds(45);
  sim::Duration slow_service_mean = sim::milliseconds(140);
  /// Lognormal sigma applied to the chosen mode's mean.
  double sigma = 0.18;
  /// CPU charged to the node per request (on top of think time).
  sim::Duration cpu_per_request = sim::microseconds(50);
  std::uint32_t response_bytes = 1024;
  /// Fraction of requests answered with a 5xx by the app itself.
  double app_error_rate = 0.0;

  /// Draws one service time.
  [[nodiscard]] sim::Duration sample_service_time(sim::Rng& rng) const;
};

enum class PodPhase : std::uint8_t { kPending, kRunning, kTerminated };

class Node;

/// A running workload instance.
class Pod {
 public:
  Pod(sim::EventLoop& loop, net::PodId id, net::ServiceId service,
      net::TenantId tenant, Node& node, net::Ipv4Addr ip, AppProfile profile,
      sim::Rng rng);

  [[nodiscard]] net::PodId id() const noexcept { return id_; }
  [[nodiscard]] net::ServiceId service() const noexcept { return service_; }
  [[nodiscard]] net::TenantId tenant() const noexcept { return tenant_; }
  [[nodiscard]] net::Ipv4Addr ip() const noexcept { return ip_; }
  [[nodiscard]] Node& node() noexcept { return node_; }
  [[nodiscard]] const Node& node() const noexcept { return node_; }
  [[nodiscard]] PodPhase phase() const noexcept { return phase_; }

  void set_phase(PodPhase phase) noexcept { phase_ = phase; }
  [[nodiscard]] bool ready() const noexcept {
    return phase_ == PodPhase::kRunning;
  }

  /// Receives the response for one application request. The Response is
  /// pool-owned scratch, valid only until the callback returns — copy what
  /// outlives it. (Passing by reference lets the pod reuse one Response's
  /// body/header capacity across requests: DESIGN.md §14.)
  using ResponseCallback = std::function<void(http::Response&)>;

  /// Application request handling: charges node CPU, waits out the modeled
  /// service time, returns a response. Terminated pods answer 503.
  void handle_request(const http::Request& req, ResponseCallback done);

  /// Cheap health-probe path; counts probes for Table 6 accounting.
  void handle_health_probe();

  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_;
  }
  [[nodiscard]] std::uint64_t health_probes_received() const noexcept {
    return health_probes_;
  }

 private:
  /// Pooled per-request state: the CPU and think-time continuations capture
  /// only this pointer (small-buffer std::function), and the Response is
  /// built in place so its body/header buffers are reused across requests.
  struct AppCall {
    Pod* self = nullptr;
    bool app_error = false;
    sim::Duration think = 0;
    std::string path;     ///< request path echoed as X-Request-Path
    http::Response resp;  ///< scratch handed to `done` by reference
    ResponseCallback done;
  };

  sim::EventLoop& loop_;
  net::PodId id_;
  net::ServiceId service_;
  net::TenantId tenant_;
  Node& node_;
  net::Ipv4Addr ip_;
  AppProfile profile_;
  sim::Rng rng_;
  PodPhase phase_ = PodPhase::kPending;
  std::uint64_t requests_served_ = 0;
  std::uint64_t health_probes_ = 0;
  sim::Pool<AppCall> calls_;
};

/// A worker machine hosting pods (and, depending on the mesh, proxies).
class Node {
 public:
  Node(sim::EventLoop& loop, net::NodeId id, net::AzId az, std::size_t cores,
       net::Ipv4Addr ip)
      : id_(id), az_(az), ip_(ip), cpu_(loop, cores) {}

  [[nodiscard]] net::NodeId id() const noexcept { return id_; }
  [[nodiscard]] net::AzId az() const noexcept { return az_; }
  [[nodiscard]] net::Ipv4Addr ip() const noexcept { return ip_; }
  [[nodiscard]] sim::CpuSet& cpu() noexcept { return cpu_; }
  [[nodiscard]] const sim::CpuSet& cpu() const noexcept { return cpu_; }

 private:
  net::NodeId id_;
  net::AzId az_;
  net::Ipv4Addr ip_;
  sim::CpuSet cpu_;
};

/// A named service selecting a set of pods.
struct Service {
  net::ServiceId id{};
  net::TenantId tenant{};
  std::string name;
  std::vector<Pod*> endpoints;
  /// Whether the owner configured L7 rules (Table 3 adoption model).
  bool wants_l7 = true;
};

}  // namespace canal::k8s
