// The proxy engine: the L4/L7 packet-processing core shared by every
// dataplane in this repository.
//
// Istio sidecars, Ambient ztunnels and waypoints, and Canal gateway
// replicas are all instances of this engine with different configurations
// (L4-only vs L7, redirection mode, mTLS termination, session capacity,
// core counts). Processing is charged to simulated cores; route resolution
// runs the real RouteTable matcher over the real HTTP request.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "http/route.h"
#include "net/flow.h"
#include "net/ids.h"
#include "proxy/cost_model.h"
#include "proxy/session_table.h"
#include "proxy/upstream.h"
#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "sim/flow_memo.h"
#include "sim/rng.h"
#include "telemetry/trace.h"

namespace canal::proxy {

class ProxyEngine {
 public:
  struct Config {
    std::string name;
    /// L7 (HTTP routing) vs pure L4 forwarding.
    bool l7 = true;
    /// How app traffic reaches this proxy when co-located with the app.
    RedirectMode redirect = RedirectMode::kNone;
    /// Terminate/originate mesh mTLS on this hop.
    bool mtls = false;
    ProxyCostModel costs;
    std::size_t session_capacity = 1'000'000;
    /// Fraction of per-request CPU that runs OFF the serialized request
    /// path (access logging, stats flushing, telemetry export). It still
    /// occupies the core — delaying subsequent requests and counting
    /// toward CPU usage — but does not gate this request's completion.
    /// Heavyweight Envoy-style chains have a large off-path share.
    double off_path_fraction = 0.0;
  };

  /// Pluggable executor for the asymmetric part of a TLS handshake —
  /// local software, a batched accelerator, or a remote key-server client.
  /// It runs `done` once the handshake completes. `done` is move-only; an
  /// executor that waits on another continuation parks it in pooled state
  /// rather than capturing it (see sim::BasicCallback).
  using HandshakeExecutor = sim::BasicCallback<sim::Callback>;

  /// Observation hook fired for every accepted request (service telemetry).
  using RequestObserver = std::function<void(
      net::ServiceId service, const net::FiveTuple& tuple, std::uint64_t bytes,
      bool new_connection)>;

  ProxyEngine(sim::EventLoop& loop, sim::CpuSet& cpu, Config config,
              sim::Rng rng);

  ProxyEngine(const ProxyEngine&) = delete;
  ProxyEngine& operator=(const ProxyEngine&) = delete;

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] ClusterManager& clusters() noexcept { return clusters_; }
  [[nodiscard]] SessionTable& sessions() noexcept { return sessions_; }
  [[nodiscard]] const SessionTable& sessions() const noexcept {
    return sessions_;
  }
  [[nodiscard]] sim::CpuSet& cpu() noexcept { return cpu_; }

  /// Installs the per-service virtual-host route table.
  void set_route_table(net::ServiceId service, http::RouteTable table);
  [[nodiscard]] const http::RouteTable* route_table(
      net::ServiceId service) const;
  /// Total installed configuration footprint (bytes) — what the controller
  /// must push to this proxy.
  [[nodiscard]] std::size_t config_bytes() const;

  void set_handshake_executor(HandshakeExecutor executor) {
    handshake_executor_ = std::move(executor);
  }
  void set_request_observer(RequestObserver observer) {
    observer_ = std::move(observer);
  }

  struct RequestOutcome {
    bool ok = false;
    int status = 0;              ///< Error/direct-response status when !ok
    /// Chosen upstream cluster when ok. A view into the UpstreamCluster's
    /// own name — stable for the cluster's lifetime, so valid for the
    /// duration of the `done` callback; copy it to retain it longer. (A
    /// std::string here heap-allocated per request: generated
    /// "service-<id>" names outgrow the small-string buffer.)
    std::string_view cluster;
    UpstreamEndpoint* endpoint = nullptr;
  };
  using RequestCallback = std::function<void(RequestOutcome)>;

  /// Processes one request arriving on connection `tuple` for
  /// `dst_service`. Charges redirection/session/TLS/L4/L7 costs on a core
  /// pinned by flow hash, resolves the route table (L7) and picks an
  /// upstream endpoint. `req` may be mutated by route actions and is held
  /// by reference across the (asynchronous) CPU hops: it must stay alive
  /// and at a stable address until `done` fires. When `trace`
  /// is non-null, appends handshake and L4/L7 spans (with queue-wait vs
  /// service-time split) covering the whole time until `done` fires.
  void handle_request(const net::FiveTuple& tuple, net::ServiceId dst_service,
                      bool new_connection, http::Request& req,
                      RequestCallback done,
                      telemetry::Trace* trace = nullptr);

  /// Server-side inbound processing: same cost structure as
  /// handle_request (redirection, session, TLS termination, L4/L7) but no
  /// route resolution — the local workload is the destination. `done(ok,
  /// status)` reports session-capacity rejections.
  void handle_inbound(const net::FiveTuple& tuple, net::ServiceId dst_service,
                      bool new_connection, std::uint64_t bytes,
                      std::function<void(bool ok, int status)> done,
                      telemetry::Trace* trace = nullptr);

  /// Response-direction forwarding for `bytes` of payload.
  void handle_response(const net::FiveTuple& tuple, std::uint64_t bytes,
                       std::function<void()> done,
                       telemetry::Trace* trace = nullptr);

  /// Drops connection state (upstream endpoint bookkeeping is external).
  void close_connection(const net::FiveTuple& tuple);

  // --- statistics -----------------------------------------------------
  [[nodiscard]] std::uint64_t requests_total() const noexcept {
    return requests_total_;
  }
  [[nodiscard]] std::uint64_t requests_failed() const noexcept {
    return requests_failed_;
  }
  [[nodiscard]] std::uint64_t handshakes() const noexcept {
    return handshakes_;
  }
  [[nodiscard]] std::uint64_t bytes_proxied() const noexcept {
    return bytes_proxied_;
  }
  /// Requests whose route-match + upstream-selection was served from the
  /// per-flow fastpath cache (the paper's established-flow fast path).
  [[nodiscard]] std::uint64_t fastpath_hits() const noexcept {
    return fastpath_hits_;
  }
  [[nodiscard]] std::uint64_t fastpath_misses() const noexcept {
    return fastpath_misses_;
  }
  /// Slots the fastpath memo holds now (0 until the first memoized flow).
  [[nodiscard]] std::size_t fastpath_slots() const noexcept {
    return fastpath_.slot_count();
  }

 private:
  /// Per-flow memo of the routing decision: the matched first rule (L7)
  /// and the resolved upstream-cluster handles, validated against the
  /// combined route/endpoint epoch. Only the table's *first* rule
  /// is ever cached and its match is re-verified per request, so
  /// first-match-wins semantics (and the exact RNG draw sequence) are
  /// preserved — a hit changes wall-clock work only, never simulated
  /// behaviour. Entries live in a sim::FlowMemo keyed by the five-tuple:
  /// insertion is allocation-free once the memo has grown to fit the
  /// engine's live flows, and a flow colliding in a full-size table simply
  /// evicts (the evicted flow falls back to the slow path — a miss, never
  /// a behaviour change). The same tuple for another service overwrites.
  struct FastpathEntry {
    net::ServiceId service{};
    const http::RouteRule* rule = nullptr;  ///< null for L4 entries
    /// Aligned with rule->action.clusters (L7) or a single slot (L4).
    /// Slots may be null when the named cluster is not installed — a hit
    /// then fails with 502 exactly like the slow path. Rules with more
    /// weighted clusters than fit inline are simply not cached.
    static constexpr std::size_t kMaxClusters = 4;
    std::array<UpstreamCluster*, kMaxClusters> clusters{};
    std::uint8_t cluster_count = 0;
  };

  /// Slot cap of the fastpath memo (power of two). The memo allocates 16
  /// slots on the first insert, so idle engines (e.g. aggregate-load
  /// replicas) pay nothing, and doubles only while two live flows collide:
  /// an engine holds slots in proportion to its flows, and every hit and
  /// miss equals that of a fixed kFastpathSlots-slot table.
  static constexpr std::size_t kFastpathSlots = 1 << 12;

  /// Pooled per-call state (DESIGN.md §14): request/inbound continuations
  /// capture only the CallState pointer, so every std::function built on
  /// the hot path fits libstdc++'s 16-byte small-buffer optimisation and
  /// the steady-state path never boxes a closure on the heap. Slots come
  /// from a capacity-retaining Pool, so their std::function members reuse
  /// whatever storage earlier calls left behind.
  struct CallState {
    ProxyEngine* self = nullptr;
    net::FiveTuple tuple{};
    net::ServiceId dst_service{};
    http::Request* req = nullptr;
    std::uint64_t bytes = 0;
    std::uint64_t hash = 0;
    sim::Duration on_path = 0;
    sim::Duration off_path = 0;
    telemetry::Component component{};
    telemetry::Trace* trace = nullptr;
    sim::TimePoint cpu_start = 0;
    sim::TimePoint hs_start = 0;
    sim::Duration queue_wait = 0;
    RequestCallback done;                       ///< handle_request calls
    std::function<void(bool, int)> done_inbound;  ///< handle_inbound calls
  };

  /// CPU cost of the request path, excluding the asymmetric handshake.
  [[nodiscard]] sim::Duration request_cpu_cost(std::uint64_t bytes,
                                               bool new_connection) const;

  /// Post-handshake continuations of handle_request / handle_inbound.
  void continue_request(CallState* cs);
  void continue_inbound(CallState* cs);

  void finish_request(const net::FiveTuple& tuple, net::ServiceId dst_service,
                      http::Request& req, RequestCallback done,
                      telemetry::Trace* trace);

  /// Combined invalidation epoch: any route-table install, cluster or
  /// endpoint membership change moves it forward. A session drop leaves it
  /// alone: an entry caches only the route rule and cluster pointers, which
  /// no session owns (DESIGN.md §9).
  [[nodiscard]] std::uint64_t fastpath_epoch() const noexcept {
    return route_epoch_ + clusters_.version();
  }

  sim::EventLoop& loop_;
  sim::CpuSet& cpu_;
  Config config_;
  sim::Rng rng_;
  ClusterManager clusters_;
  SessionTable sessions_;
  // Flat route-match table: the fastpath-miss lookup is a contiguous probe
  // run. RouteTable values move on rehash, but every cached RouteRule*
  // (fastpath entries) is guarded by route_epoch_, which set_route_table
  // bumps before inserting.
  sim::FlatHashMap<net::ServiceId, http::RouteTable, net::IdHash> routes_;
  HandshakeExecutor handshake_executor_;
  RequestObserver observer_;
  std::uint64_t requests_total_ = 0;
  std::uint64_t requests_failed_ = 0;
  std::uint64_t handshakes_ = 0;
  std::uint64_t bytes_proxied_ = 0;

  sim::FlowMemo<net::FiveTuple, FastpathEntry, kFastpathSlots> fastpath_;
  sim::Pool<CallState> calls_;
  std::uint64_t route_epoch_ = 0;
  std::uint64_t fastpath_hits_ = 0;
  std::uint64_t fastpath_misses_ = 0;

  // Span names are fixed per engine; precomputing them keeps the traced
  // hot path free of per-request string concatenation.
  std::string span_main_;
  std::string span_resp_;
  std::string span_inbound_;
  std::string span_handshake_;
  std::string span_reject_;
  std::string span_inbound_reject_;
  std::string span_fastpath_;
};

}  // namespace canal::proxy
