// The centralized multi-tenant mesh gateway (§4.2, Fig 6/8).
//
// Hierarchy: MeshGateway -> per-AZ GatewayBackends -> replica VMs.
//   * A replica is a VM running the L7 proxy engine plus an embedded
//     redirector (LB disaggregation, §4.4) and a disaggregator for
//     session-aggregation tunnels.
//   * A backend is a group of replicas sharing one configuration set; an
//     ECMP router fronts the replicas and Beamer-style bucket tables
//     (one per service) repair session consistency across replica changes.
//   * Services are placed on multiple backends per AZ (shuffle sharding)
//     and on backends in other AZs (hierarchical failure recovery); DNS
//     resolution prefers healthy local-AZ backends.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "canal/sharding.h"
#include "crypto/keyserver.h"
#include "http/route.h"
#include "k8s/objects.h"
#include "lb/aggregation.h"
#include "lb/bucket_table.h"
#include "mesh/dataplane.h"
#include "net/router.h"
#include "net/vswitch.h"
#include "proxy/engine.h"
#include "telemetry/registry.h"
#include "telemetry/service_stats.h"
#include "telemetry/trace.h"
#include "sim/arena.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"
#include "sim/flow_memo.h"

namespace canal::core {

struct GatewayConfig {
  std::size_t replica_cores = 2;
  std::size_t replicas_per_backend = 2;
  std::size_t session_capacity_per_replica = 100'000;
  /// Backends a service occupies in its home AZ (shuffle-shard size).
  std::size_t backends_per_service_local = 2;
  /// Additional backends in each other AZ.
  std::size_t backends_per_service_remote = 1;
  std::size_t bucket_count = 64;
  std::size_t bucket_chain_length = 4;
  /// eBPF-accelerated redirector lookup (12–15x below L7 cost, §4.4).
  sim::Duration redirector_cost = sim::microseconds(4);
  /// VXLAN disaggregation CPU per packet at the replica (Appendix A).
  sim::Duration disaggregation_cost = sim::microseconds(1);
  /// Replica-to-replica hop during chain redirection.
  sim::Duration redirect_hop_latency = sim::microseconds(80);
  /// Idle flows age out of replica session tables after this long (drives
  /// lossless-migration completion, §6.2).
  sim::Duration session_idle_timeout = sim::minutes(15);
  proxy::ProxyCostModel replica_costs = default_replica_costs();
  mesh::NetworkProfile network;
  bool mtls = true;
  /// Builds the asymmetric-handshake executor for replicas in an AZ
  /// (typically a key-server client). Applied to replicas as they are
  /// created, including scale-out replicas.
  std::function<proxy::ProxyEngine::HandshakeExecutor(net::AzId)>
      handshake_factory;

  /// Custom gateway dataplane: lighter L7 path than stock Envoy (§2.2
  /// "substantial room for performance improvement").
  [[nodiscard]] static proxy::ProxyCostModel default_replica_costs();
};

/// One replica VM of a gateway backend.
class GatewayReplica {
 public:
  GatewayReplica(sim::EventLoop& loop, net::ReplicaId id, net::Ipv4Addr ip,
                 const GatewayConfig& config, sim::Rng rng);

  [[nodiscard]] net::ReplicaId id() const noexcept { return id_; }
  [[nodiscard]] net::Ipv4Addr ip() const noexcept { return ip_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  void set_alive(bool alive) noexcept { alive_ = alive; }

  [[nodiscard]] proxy::ProxyEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const proxy::ProxyEngine& engine() const noexcept {
    return *engine_;
  }
  [[nodiscard]] sim::CpuSet& cpu() noexcept { return cpu_; }
  [[nodiscard]] const sim::CpuSet& cpu() const noexcept { return cpu_; }

  /// Does this replica hold flow state for `tuple`?
  [[nodiscard]] bool knows_flow(const net::FiveTuple& tuple) const {
    return alive_ && engine_->sessions().find(tuple) != nullptr;
  }

  /// Crash: all sessions on this replica are lost.
  void fail();
  void recover() noexcept { alive_ = true; }

 private:
  net::ReplicaId id_;
  net::Ipv4Addr ip_;
  sim::CpuSet cpu_;
  std::unique_ptr<proxy::ProxyEngine> engine_;
  bool alive_ = true;
};

/// Outcome of a gateway request.
class GatewayBackend;

struct GatewayOutcome {
  bool ok = false;
  int status = 0;
  proxy::UpstreamEndpoint* endpoint = nullptr;
  GatewayReplica* replica = nullptr;
  GatewayBackend* backend = nullptr;
  std::uint32_t chain_redirections = 0;
};

/// A backend: a replica group sharing one configuration set.
class GatewayBackend {
 public:
  GatewayBackend(sim::EventLoop& loop, net::BackendId id, net::AzId az,
                 const GatewayConfig& config, sim::Rng rng,
                 bool is_sandbox = false);
  ~GatewayBackend();

  [[nodiscard]] net::BackendId id() const noexcept { return id_; }
  [[nodiscard]] net::AzId az() const noexcept { return az_; }
  [[nodiscard]] bool is_sandbox() const noexcept { return is_sandbox_; }
  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }

  /// Any replica alive?
  [[nodiscard]] bool alive() const;
  [[nodiscard]] std::size_t replica_count() const noexcept {
    return replicas_.size();
  }
  [[nodiscard]] GatewayReplica* replica(std::size_t i) {
    return replicas_.at(i).get();
  }
  [[nodiscard]] GatewayReplica* find_replica(net::ReplicaId id);

  /// Installs a service's routes + endpoints on every replica and creates
  /// its bucket table.
  void install_service(const k8s::Service& service);
  void remove_service(net::ServiceId service);
  [[nodiscard]] bool hosts(net::ServiceId service) const {
    return services_.contains(service);
  }
  [[nodiscard]] const sim::FlatOrderedSet<net::ServiceId>& services()
      const noexcept {
    return services_;
  }
  void refresh_endpoints(const k8s::Service& service);

  /// Full request path inside the backend: ECMP arrival -> redirector
  /// (bucket-table chain walk, possibly replica-to-replica hops) -> L7
  /// processing at the owning replica. When `trace` is non-null, records
  /// redirect-chain, redirector-lookup, disaggregation and engine spans.
  void handle_request(const net::FiveTuple& tuple, net::ServiceId service,
                      bool new_connection, bool https, http::Request& req,
                      std::function<void(GatewayOutcome)> done,
                      telemetry::Trace* trace = nullptr);

  /// Response-direction processing at the replica that served the request.
  void handle_response(GatewayReplica& replica, const net::FiveTuple& tuple,
                       std::uint64_t bytes, std::function<void()> done,
                       telemetry::Trace* trace = nullptr);

  // --- elasticity & failure ------------------------------------------
  GatewayReplica& add_replica();
  /// Graceful drain: new flows move away, existing flows keep working.
  void drain_replica(net::ReplicaId id);
  /// Crash: sessions lost, ECMP membership shrinks, chains updated.
  /// Equivalent to crash_replica + evict_replica in one step (a fault where
  /// the control plane notices instantly).
  void fail_replica(net::ReplicaId id);
  void fail_all_replicas();
  /// Data-plane crash only: the VM dies and loses its sessions, but ECMP
  /// and bucket tables still point at it — requests it owns fail with 503
  /// until a health monitor notices and calls evict_replica. This is the
  /// realistic failure mode (detection lags the crash).
  void crash_replica(net::ReplicaId id);
  /// The VM comes back up but receives no traffic until the health monitor
  /// re-admits it (recover_replica).
  void revive_replica(net::ReplicaId id);
  /// Control-plane eviction: removes the replica from ECMP and remaps its
  /// buckets onto the remaining alive replicas. Safe on dead or draining
  /// replicas alike.
  void evict_replica(net::ReplicaId id);
  /// Brings a failed replica back: re-admitted to ECMP and takes over a
  /// share of every bucket table again.
  void recover_replica(net::ReplicaId id);
  /// Is the replica currently an ECMP member (eligible for new traffic)?
  [[nodiscard]] bool in_service(net::ReplicaId id);

  // --- telemetry ------------------------------------------------------
  [[nodiscard]] double cpu_utilization(sim::Duration window) const;
  [[nodiscard]] double session_occupancy() const;
  [[nodiscard]] telemetry::ServiceStats& stats_for(net::ServiceId service);
  /// Per-service stats in service-id order (unique_ptr values: registry
  /// series link into each ServiceStats, so addresses must survive
  /// inserts).
  using ServiceStatsMap =
      sim::FlatOrderedMap<net::ServiceId,
                          std::unique_ptr<telemetry::ServiceStats>>;
  [[nodiscard]] const ServiceStatsMap& service_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] telemetry::BackendSnapshot snapshot(sim::Duration window);
  /// Water level at `t`: cpu_utilization(5 s) as of the last sampling grid
  /// point at or before `t` (0 before the first), over the replicas alive
  /// now. Exact while that window is inside the CPU history.
  [[nodiscard]] double load_at(sim::TimePoint t) const;
  /// Mean sim::CpuSet::coarse_utilization over alive replicas.
  [[nodiscard]] double coarse_load(sim::TimePoint lo, sim::TimePoint hi) const;
  /// Label-keyed metrics for this backend. Per-service RPS histories are
  /// linked here (series `service_rps{service="<id>"}`) so consumers like
  /// the root-cause analyzer can discover them without touching stats_.
  [[nodiscard]] telemetry::MetricsRegistry& metrics() noexcept {
    return registry_;
  }
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const noexcept {
    return registry_;
  }
  /// Starts sampling on a grid of `period` from now: load_at() reads the
  /// water level at its points, and sessions idle past
  /// GatewayConfig::session_idle_timeout expire at them. Nothing polls:
  /// one event waits for the first point where a session can expire.
  void start_sampling(sim::Duration period);
  void stop_sampling();

  /// Aggregate load injection: charges `rps * window` worth of requests to
  /// the replicas' CPUs and records bulk stats, without simulating
  /// individual requests. Used by cloud-scale benches (Figs 16–20) where
  /// production RPS is far beyond per-event simulation.
  void inject_load(net::ServiceId service, double rps, sim::Duration window,
                   double new_session_fraction = 0.1,
                   double https_fraction = 0.5);
  /// CPU charged per injected request (defaults to the L7 request+response
  /// cost of the replica profile).
  [[nodiscard]] sim::Duration injected_request_cost() const;

  // --- throttling (early rate limiting at the redirector, §6.2) -------
  void set_throttle(net::ServiceId service, double rps_limit);
  void clear_throttle(net::ServiceId service);
  [[nodiscard]] std::optional<double> throttle_of(net::ServiceId service) const;
  [[nodiscard]] std::uint64_t throttled_requests() const noexcept {
    return throttled_requests_;
  }

  /// Requests whose redirector decision (owning replica) came from the
  /// per-flow fastpath cache instead of a bucket-chain walk.
  [[nodiscard]] std::uint64_t fastpath_hits() const noexcept {
    return fastpath_hits_;
  }
  [[nodiscard]] std::uint64_t fastpath_misses() const noexcept {
    return fastpath_misses_;
  }
  /// Slots the flow memo holds now (0 until the first memoized flow).
  [[nodiscard]] std::size_t flow_cache_slots() const noexcept {
    return flow_cache_.slot_count();
  }
  /// Sessions dropped at sampling grid points for idling past
  /// GatewayConfig::session_idle_timeout, summed over replicas.
  [[nodiscard]] std::uint64_t sessions_expired() const noexcept {
    return sessions_expired_;
  }

  /// Resets every session belonging to `service` (lossy migration).
  std::size_t reset_service_sessions(net::ServiceId service);
  /// Sessions currently held for `service` across replicas.
  [[nodiscard]] std::size_t sessions_for(net::ServiceId service) const;
  /// Sessions of `service` established more than a minute ago, across
  /// replicas: the long-lasting sessions §6.3's migration selection
  /// avoids. Counted when called, so exact whether or not sampling runs.
  [[nodiscard]] std::size_t long_sessions(net::ServiceId service) const;

  [[nodiscard]] const lb::BucketTable* bucket_table(
      net::ServiceId service) const;

 private:
  /// Per-flow memo of the redirector decision (the gateway half of the
  /// paper's established-flow fast path). Entries are created only when
  /// the flow's bucket chain has a single link: the decision is then
  /// {chain head, zero hops} independent of SYN-ness and of which replica
  /// holds session state, so a hit replays exactly what the chain walk
  /// would compute now. Every replica/ECMP/bucket/service mutation and
  /// session reset bumps flow_epoch_, invalidating all entries; replica
  /// liveness is still re-checked per hit. Idle expiry does not bump it:
  /// it changes only session state, which a single-link decision ignores.
  /// Entries live in a sim::FlowMemo keyed by the five-tuple — insertion
  /// is allocation-free once the memo fits the backend's live flows, and a
  /// flow colliding in a full-size table just evicts (the evicted flow
  /// takes the slow path: a miss, never a behaviour change).
  struct FlowEntry {
    net::ServiceId service{};
    GatewayReplica* replica = nullptr;
  };

  /// Slot cap of the flow memo (power of two). It allocates 16 slots on
  /// the first insert, so backends driven only by aggregate load pay
  /// nothing, and doubles only while two live flows collide; hits and
  /// misses equal those of a fixed kFlowCacheSlots-slot table.
  static constexpr std::size_t kFlowCacheSlots = 1 << 12;

  [[nodiscard]] std::vector<net::ReplicaId> alive_replica_ids() const;
  /// Mean over alive replicas of `per_replica(replica)`; 0 with none alive.
  template <typename F>
  [[nodiscard]] double mean_over_alive(F per_replica) const;

  static constexpr sim::TimePoint kRunning =
      std::numeric_limits<sim::TimePoint>::max();
  /// One start_sampling() run: points start + k * period, k >= 1, up to
  /// and including stop (kRunning until stop_sampling()).
  struct SamplingGrid {
    sim::TimePoint start = 0;
    sim::Duration period = 0;
    sim::TimePoint stop = kRunning;
  };
  [[nodiscard]] bool sampling() const noexcept {
    return !grids_.empty() && grids_.back().stop == kRunning;
  }
  /// Schedules the idle-expiry sweep at the first grid point where some
  /// session can have idled past the timeout; none with every table empty.
  void arm_expiry();
  void expire_idle();

  /// Pooled per-request state for the chain-forward -> redirector ->
  /// engine continuation (DESIGN.md §14): hot-path closures capture only
  /// this pointer, so the std::functions they become stay within the
  /// small-buffer optimisation and never box on the heap.
  struct CallState {
    GatewayBackend* self = nullptr;
    GatewayReplica* target = nullptr;
    net::FiveTuple tuple{};
    net::ServiceId service{};
    bool new_connection = false;
    http::Request* req = nullptr;
    std::uint32_t hops = 0;
    telemetry::Trace* trace = nullptr;
    sim::TimePoint chain_start = 0;
    sim::TimePoint pre_start = 0;
    sim::Duration lookup_cost = 0;
    std::function<void(GatewayOutcome)> done;
  };

  void deliver_at_replica(CallState* cs);

  sim::EventLoop& loop_;
  net::BackendId id_;
  net::AzId az_;
  const GatewayConfig& config_;
  sim::Rng rng_;
  bool is_sandbox_;
  std::vector<std::unique_ptr<GatewayReplica>> replicas_;
  net::EcmpRouter router_;
  // Flat tables (DESIGN.md §14). Ordered variants where iteration reaches
  // simulated results (bucket remaps, stats sums); hash tables where only
  // keyed lookups happen on the request path.
  sim::FlatOrderedMap<net::ServiceId, lb::BucketTable> bucket_tables_;
  sim::FlatOrderedSet<net::ServiceId> services_;
  sim::FlatHashMap<net::ServiceId, const k8s::Service*, net::IdHash>
      service_objects_;
  ServiceStatsMap stats_;
  telemetry::MetricsRegistry registry_;
  sim::FlatHashMap<net::ServiceId, double, net::IdHash> throttles_;
  sim::FlatHashMap<net::ServiceId, sim::RateMeter, net::IdHash>
      throttle_meters_;
  std::vector<SamplingGrid> grids_;  // oldest first
  sim::EventHandle expiry_;
  std::uint64_t throttled_requests_ = 0;
  std::uint32_t next_replica_ = 1;
  sim::FlowMemo<net::FiveTuple, FlowEntry, kFlowCacheSlots> flow_cache_;
  sim::Pool<CallState> calls_;
  std::uint64_t flow_epoch_ = 0;
  std::uint64_t fastpath_hits_ = 0;
  std::uint64_t fastpath_misses_ = 0;
  std::uint64_t sessions_expired_ = 0;
};

/// The region-level gateway: backends across AZs + placement + DNS.
class MeshGateway {
 public:
  MeshGateway(sim::EventLoop& loop, GatewayConfig config, sim::Rng rng);
  ~MeshGateway();

  [[nodiscard]] const GatewayConfig& config() const noexcept {
    return config_;
  }

  /// Adds an AZ with `backends` initial backends. Returns the AZ id.
  net::AzId add_az(std::size_t backends);
  GatewayBackend& add_backend(net::AzId az, bool is_sandbox = false);
  [[nodiscard]] std::vector<GatewayBackend*> backends_in(net::AzId az);
  [[nodiscard]] std::vector<GatewayBackend*> all_backends();
  [[nodiscard]] GatewayBackend* find_backend(net::BackendId id);
  [[nodiscard]] GatewayBackend* sandbox(net::AzId az);

  /// Places a service: shuffle-sharded local backends in `home_az` plus
  /// remote copies in every other AZ, then installs configuration.
  bool install_service(const k8s::Service& service, net::AzId home_az);
  void remove_service(net::ServiceId service);
  /// The backends hosting `service`, in placement order (empty when
  /// unplaced). A view of the stored placement: any placement change
  /// (install, extend, retract, move, remove) invalidates it.
  [[nodiscard]] std::span<GatewayBackend* const> placement_view(
      net::ServiceId service) const;
  /// A copy of placement_view(), safe to hold or iterate across a
  /// placement change.
  [[nodiscard]] std::vector<GatewayBackend*> placement_of(
      net::ServiceId service) const {
    const auto view = placement_view(service);
    return {view.begin(), view.end()};
  }

  /// Extends a service onto one more backend (precise scaling "Reuse"/"New").
  void extend_service(net::ServiceId service, GatewayBackend& backend);
  /// Removes one backend from a service's placement (post-migration
  /// retirement); keeps the placement map consistent.
  void retract_service(net::ServiceId service, GatewayBackend& backend);
  /// Moves the service's placement to the sandbox (migration, §6.2).
  void move_to_sandbox(net::ServiceId service, net::AzId az);

  /// DNS resolution: healthy local-AZ backend hosting the service if any,
  /// otherwise a healthy backend in another AZ (§4.2).
  [[nodiscard]] GatewayBackend* resolve(net::ServiceId service,
                                        net::AzId client_az);

  /// Full gateway request entry: VNI mapping at the vSwitch, then the
  /// resolved backend's ECMP/redirector/L7 path.
  void handle_request(net::Packet packet, bool new_connection, bool https,
                      http::Request& req, net::AzId client_az,
                      std::function<void(GatewayOutcome)> done,
                      telemetry::Trace* trace = nullptr);

  [[nodiscard]] net::VSwitch& vswitch() noexcept { return vswitch_; }
  [[nodiscard]] ShuffleShardAssigner& assigner(net::AzId az);
  [[nodiscard]] const k8s::Service* service_object(net::ServiceId id) const;

  /// Registers the service's VNI binding + object for VNI-based dispatch.
  void register_service(const k8s::Service& service, std::uint32_t vni);

  /// Allocates a region-unique VNI. Tenant networks must never share VNIs
  /// — the VNI is the only thing distinguishing overlapping VPC space.
  std::uint32_t allocate_vni() noexcept { return next_vni_++; }

  /// Total gateway CPU burned (cloud side), core-seconds.
  [[nodiscard]] double total_cpu_core_seconds() const;
  /// Installed configuration bytes across backends (control-plane model).
  [[nodiscard]] std::size_t config_bytes() const;

 private:
  struct Az {
    net::AzId id{};
    std::vector<std::unique_ptr<GatewayBackend>> backends;
    std::unique_ptr<ShuffleShardAssigner> assigner;
    GatewayBackend* sandbox = nullptr;
  };

  /// Pooled state for the cross-AZ dispatch hop (same SBO discipline as
  /// GatewayBackend::CallState).
  struct DispatchState {
    MeshGateway* self = nullptr;
    GatewayBackend* backend = nullptr;
    net::FiveTuple tuple{};
    net::ServiceId service{};
    bool new_connection = false;
    bool https = false;
    http::Request* req = nullptr;
    telemetry::Trace* trace = nullptr;
    sim::TimePoint extra_start = 0;
    std::function<void(GatewayOutcome)> done;
  };

  Az& az_of(net::AzId id);

  sim::EventLoop& loop_;
  GatewayConfig config_;
  sim::Rng rng_;
  std::vector<Az> azs_;
  /// Every backend by id: add_backend numbers them from 1 and none is ever
  /// removed, so backend `id` sits at index id - 1.
  std::vector<GatewayBackend*> backends_by_id_;
  net::VSwitch vswitch_;
  sim::Pool<DispatchState> dispatches_;
  /// Backends are never removed, so stored pointers stay valid.
  sim::FlatHashMap<net::ServiceId, std::vector<GatewayBackend*>, net::IdHash>
      placements_;
  sim::FlatHashMap<net::ServiceId, const k8s::Service*, net::IdHash>
      service_objects_;
  std::uint16_t next_az_ = 0;
  std::uint32_t next_vni_ = 100;
};

/// Health-driven replica eviction and re-admission (§4.2 failure handling).
///
/// Periodically probes every replica of every backend. A replica that is
/// dead on `unhealthy_after` consecutive probes while still an ECMP member
/// is evicted (evict_replica: ECMP membership + bucket remap), restoring
/// service for the flows that hashed onto it. A replica that is alive on
/// `healthy_after` consecutive probes while out of service is re-admitted
/// (recover_replica). Detection therefore lags a crash by roughly
/// probe_interval * unhealthy_after — the 503 window bench_faults measures.
class GatewayHealthMonitor {
 public:
  struct Config {
    sim::Duration probe_interval = sim::milliseconds(100);
    std::uint32_t unhealthy_after = 3;
    std::uint32_t healthy_after = 2;
  };

  GatewayHealthMonitor(sim::EventLoop& loop, MeshGateway& gateway,
                       Config config);
  // Separate overload rather than `= {}`: GCC rejects brace-default args
  // of nested aggregates with member initializers (PR 96645).
  GatewayHealthMonitor(sim::EventLoop& loop, MeshGateway& gateway);

  /// Starts periodic probing (first probe one interval from now).
  void start();
  void stop() noexcept;

  /// One probe sweep over all replicas; exposed for deterministic tests.
  void probe_once();

  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_;
  }
  [[nodiscard]] std::uint64_t readmissions() const noexcept {
    return readmissions_;
  }

 private:
  sim::EventLoop& loop_;
  MeshGateway& gateway_;
  Config config_;
  sim::PeriodicTimer timer_;
  sim::FlatHashMap<net::ReplicaId, std::uint32_t, net::IdHash> dead_streak_;
  sim::FlatHashMap<net::ReplicaId, std::uint32_t, net::IdHash> alive_streak_;
  std::uint64_t evictions_ = 0;
  std::uint64_t readmissions_ = 0;
};

}  // namespace canal::core
