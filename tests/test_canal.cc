// Integration tests for the Canal core: shuffle sharding, the mesh
// gateway (failure recovery, throttling, multi-tenancy), the full Canal
// dataplane, precise scaling, anomaly intervention, health-check
// aggregation, in-phase migration, cost model, population model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "canal/canal_mesh.h"
#include "canal/cost_model.h"
#include "canal/gateway.h"
#include "canal/health_aggregation.h"
#include "canal/inphase_migration.h"
#include "canal/intervention.h"
#include "canal/population.h"
#include "canal/scaling.h"
#include "canal/sharding.h"
#include "tests/testutil.h"

namespace canal::core {
namespace {

std::vector<net::BackendId> backend_pool(std::uint32_t n) {
  std::vector<net::BackendId> pool;
  for (std::uint32_t i = 1; i <= n; ++i) {
    pool.push_back(static_cast<net::BackendId>(i));
  }
  return pool;
}

TEST(ShuffleSharding, UniqueCombinations) {
  ShuffleShardAssigner assigner(3, sim::Rng(233));
  assigner.set_pool(backend_pool(10));
  std::set<std::vector<net::BackendId>> seen;
  for (std::uint64_t s = 1; s <= 50; ++s) {
    const auto combo = assigner.assign(static_cast<net::ServiceId>(s));
    ASSERT_TRUE(combo.has_value());
    EXPECT_EQ(combo->size(), 3u);
    EXPECT_TRUE(seen.insert(*combo).second) << "duplicate combination";
  }
}

TEST(ShuffleSharding, AssignIsIdempotent) {
  ShuffleShardAssigner assigner(2, sim::Rng(239));
  assigner.set_pool(backend_pool(6));
  const auto first = assigner.assign(static_cast<net::ServiceId>(1));
  const auto second = assigner.assign(static_cast<net::ServiceId>(1));
  EXPECT_EQ(first, second);
}

TEST(ShuffleSharding, PoolTooSmall) {
  ShuffleShardAssigner assigner(5, sim::Rng(241));
  assigner.set_pool(backend_pool(3));
  EXPECT_FALSE(assigner.assign(static_cast<net::ServiceId>(1)).has_value());
}

TEST(ShuffleSharding, IsolationNoFullOverlap) {
  ShuffleShardAssigner assigner(3, sim::Rng(251));
  assigner.set_pool(backend_pool(12));
  for (std::uint64_t s = 1; s <= 40; ++s) {
    assigner.assign(static_cast<net::ServiceId>(s));
  }
  for (std::uint64_t s = 1; s <= 40; ++s) {
    EXPECT_TRUE(assigner.isolated(static_cast<net::ServiceId>(s)));
  }
  EXPECT_LT(assigner.max_pairwise_overlap(), 3u);
}

TEST(ShuffleSharding, ExhaustsCombinationSpace) {
  // 3 backends choose 2 => only 3 combinations exist.
  ShuffleShardAssigner assigner(2, sim::Rng(257));
  assigner.set_pool(backend_pool(3));
  int assigned = 0;
  for (std::uint64_t s = 1; s <= 10; ++s) {
    if (assigner.assign(static_cast<net::ServiceId>(s))) ++assigned;
  }
  EXPECT_EQ(assigned, 3);
}

// ---- Gateway fixture -----------------------------------------------------

struct GatewayTestbed {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(7), sim::Rng(263)};
  GatewayConfig config;
  std::unique_ptr<MeshGateway> gateway;
  std::unique_ptr<CanalMesh> canal;
  std::unique_ptr<crypto::KeyServer> key_server;
  k8s::Service* frontend = nullptr;
  k8s::Service* backend_svc = nullptr;

  explicit GatewayTestbed(std::size_t backends_per_az = 4,
                          std::size_t azs = 2) {
    config.backends_per_service_local = 2;
    config.backends_per_service_remote = 1;
    gateway = std::make_unique<MeshGateway>(loop, config, sim::Rng(269));
    for (std::size_t a = 0; a < azs; ++a) {
      gateway->add_az(backends_per_az);
    }
    for (std::size_t a = 0; a < azs; ++a) {
      cluster.add_node(static_cast<net::AzId>(a), 8);
    }
    frontend = &cluster.add_service("frontend");
    backend_svc = &cluster.add_service("backend");
    k8s::AppProfile profile;
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = sim::milliseconds(1);
    profile.sigma = 0.05;
    for (int i = 0; i < 3; ++i) {
      cluster.add_pod(*frontend, profile).set_phase(k8s::PodPhase::kRunning);
      cluster.add_pod(*backend_svc, profile)
          .set_phase(k8s::PodPhase::kRunning);
    }
    key_server = std::make_unique<crypto::KeyServer>(
        loop, static_cast<net::AzId>(0), 8, sim::Rng(271));
    CanalMesh::Config mesh_config;
    canal = std::make_unique<CanalMesh>(loop, cluster, *gateway, mesh_config,
                                        sim::Rng(277));
    canal->install();
    canal->attach_key_server(static_cast<net::AzId>(0), key_server.get());
  }

  mesh::RequestOptions request() {
    mesh::RequestOptions opts;
    opts.client = frontend->endpoints.front();
    opts.dst_service = backend_svc->id;
    opts.path = "/api";
    return opts;
  }

  mesh::RequestResult run_one(mesh::RequestOptions opts) {
    std::optional<mesh::RequestResult> result;
    canal->send_request(opts, [&](mesh::RequestResult r) { result = r; });
    loop.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(mesh::RequestResult{});
  }
};

TEST(Gateway, ServicePlacedAcrossAzs) {
  GatewayTestbed bed;
  const auto placement = bed.gateway->placement_of(bed.backend_svc->id);
  ASSERT_EQ(placement.size(), 3u);  // 2 local + 1 remote
  std::set<net::AzId> azs;
  for (const auto* backend : placement) azs.insert(backend->az());
  EXPECT_EQ(azs.size(), 2u);
}

TEST(Gateway, RequestSucceedsEndToEnd) {
  GatewayTestbed bed;
  const auto result = bed.run_one(bed.request());
  EXPECT_EQ(result.status, 200);
  EXPECT_GT(result.latency, 0);
  // Gateway CPU burned on the cloud side; on-node CPU on the user side.
  EXPECT_GT(bed.gateway->total_cpu_core_seconds(), 0.0);
  EXPECT_GT(bed.canal->user_cpu_core_seconds(), 0.0);
}

TEST(Gateway, RemoteMtlsViaKeyServer) {
  GatewayTestbed bed;
  mesh::RequestOptions opts = bed.request();
  opts.new_connection = true;
  bed.run_one(opts);
  EXPECT_GT(bed.key_server->requests_served(), 0u);
}

TEST(Gateway, ResolvePrefersLocalAz) {
  GatewayTestbed bed;
  GatewayBackend* resolved =
      bed.gateway->resolve(bed.backend_svc->id, static_cast<net::AzId>(0));
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved->az(), static_cast<net::AzId>(0));
}

TEST(Gateway, FailoverToSecondBackendInAz) {
  GatewayTestbed bed;
  auto placement = bed.gateway->placement_of(bed.backend_svc->id);
  // The home AZ is the one holding two shuffle-sharded backends.
  std::map<net::AzId, std::vector<GatewayBackend*>> by_az;
  for (auto* backend : placement) by_az[backend->az()].push_back(backend);
  net::AzId home{};
  for (const auto& [az, backends] : by_az) {
    if (backends.size() >= 2) home = az;
  }
  GatewayBackend* victim = by_az[home].front();
  victim->fail_all_replicas();
  EXPECT_FALSE(victim->alive());
  GatewayBackend* resolved = bed.gateway->resolve(bed.backend_svc->id, home);
  ASSERT_NE(resolved, nullptr);
  EXPECT_NE(resolved, victim);
  EXPECT_EQ(resolved->az(), home);
  EXPECT_EQ(bed.run_one(bed.request()).status, 200);
}

TEST(Gateway, CrossAzFailover) {
  GatewayTestbed bed;
  // Kill every local-AZ backend of the service.
  for (auto* backend : bed.gateway->placement_of(bed.backend_svc->id)) {
    if (backend->az() == static_cast<net::AzId>(0)) {
      backend->fail_all_replicas();
    }
  }
  GatewayBackend* resolved =
      bed.gateway->resolve(bed.backend_svc->id, static_cast<net::AzId>(0));
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved->az(), static_cast<net::AzId>(1));
  EXPECT_EQ(bed.run_one(bed.request()).status, 200);
}

TEST(Gateway, TotalOutageOnlyWhenAllBackendsDead) {
  GatewayTestbed bed;
  for (auto* backend : bed.gateway->placement_of(bed.backend_svc->id)) {
    backend->fail_all_replicas();
  }
  EXPECT_EQ(bed.run_one(bed.request()).status, 503);
}

TEST(Gateway, ReplicaFailureKeepsBackendAlive) {
  GatewayTestbed bed;
  GatewayBackend* backend =
      bed.gateway->resolve(bed.backend_svc->id, static_cast<net::AzId>(0));
  ASSERT_NE(backend, nullptr);
  backend->fail_replica(backend->replica(0)->id());
  EXPECT_TRUE(backend->alive());
  EXPECT_EQ(bed.run_one(bed.request()).status, 200);
}

TEST(Gateway, UnknownVniRejected) {
  GatewayTestbed bed;
  net::Packet packet;
  packet.tuple = net::FiveTuple{net::Ipv4Addr(10, 7, 1, 1),
                                net::Ipv4Addr(10, 255, 0, 1), 1000, 443,
                                net::Protocol::kTcp};
  packet.vxlan = net::VxlanHeader{packet.tuple, 0xFFFFFF};  // unregistered
  http::Request req;
  std::optional<GatewayOutcome> outcome;
  bed.gateway->handle_request(packet, true, true, req,
                              static_cast<net::AzId>(0),
                              [&](GatewayOutcome o) { outcome = o; });
  bed.loop.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, 403);
}

TEST(Gateway, OverlappingTenantAddressesDisambiguated) {
  // Two tenants with identical pod IPs; the VNI decides which service the
  // gateway sees (§4.2 multi-tenancy requirement).
  GatewayTestbed bed;
  const std::uint32_t vni_backend = bed.canal->vni_of(bed.backend_svc->id);
  const std::uint32_t vni_frontend = bed.canal->vni_of(bed.frontend->id);
  ASSERT_NE(vni_backend, vni_frontend);
  net::Packet p1, p2;
  p1.tuple = p2.tuple = net::FiveTuple{net::Ipv4Addr(10, 7, 1, 1),
                                       net::Ipv4Addr(10, 255, 0, 1), 1000,
                                       443, net::Protocol::kTcp};
  p1.vxlan = net::VxlanHeader{p1.tuple, vni_backend};
  p2.vxlan = net::VxlanHeader{p2.tuple, vni_frontend};
  ASSERT_TRUE(bed.gateway->vswitch().deliver_to_vm(p1));
  ASSERT_TRUE(bed.gateway->vswitch().deliver_to_vm(p2));
  EXPECT_NE(p1.service_id, p2.service_id);
}

TEST(Gateway, ThrottleDropsAtRedirector) {
  GatewayTestbed bed;
  for (auto* backend : bed.gateway->placement_of(bed.backend_svc->id)) {
    backend->set_throttle(bed.backend_svc->id, 0.5);  // ~nothing allowed
  }
  int throttled = 0;
  for (int i = 0; i < 10; ++i) {
    if (bed.run_one(bed.request()).status == 429) ++throttled;
  }
  EXPECT_GT(throttled, 5);
  for (auto* backend : bed.gateway->placement_of(bed.backend_svc->id)) {
    backend->clear_throttle(bed.backend_svc->id);
  }
  EXPECT_EQ(bed.run_one(bed.request()).status, 200);
}

TEST(Gateway, ScaleOutReplicaServesExistingAndNewFlows) {
  GatewayTestbed bed;
  GatewayBackend* backend =
      bed.gateway->resolve(bed.backend_svc->id, static_cast<net::AzId>(0));
  const std::size_t before = backend->replica_count();
  backend->add_replica();
  EXPECT_EQ(backend->replica_count(), before + 1);
  EXPECT_EQ(bed.run_one(bed.request()).status, 200);
  // The new replica took over a share of bucket heads.
  const auto* table = backend->bucket_table(bed.backend_svc->id);
  ASSERT_NE(table, nullptr);
  EXPECT_GT(table->buckets_headed_by(backend->replica(before)->id()), 0u);
}

TEST(Gateway, SandboxMigrationMovesPlacement) {
  GatewayTestbed bed;
  bed.gateway->move_to_sandbox(bed.backend_svc->id, static_cast<net::AzId>(0));
  const auto placement = bed.gateway->placement_of(bed.backend_svc->id);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_TRUE(placement.front()->is_sandbox());
  // Traffic still flows, now through the sandbox.
  EXPECT_EQ(bed.run_one(bed.request()).status, 200);
  EXPECT_GT(placement.front()->stats_for(bed.backend_svc->id).total_requests(),
            0u);
}

TEST(Gateway, InjectLoadRaisesUtilization) {
  GatewayTestbed bed;
  GatewayBackend* backend =
      bed.gateway->resolve(bed.backend_svc->id, static_cast<net::AzId>(0));
  for (int tick = 0; tick < 10; ++tick) {
    bed.loop.post(sim::seconds(1), [&] {
      backend->inject_load(bed.backend_svc->id, 10000.0, sim::seconds(1));
    });
    bed.loop.run();
  }
  EXPECT_GT(backend->cpu_utilization(sim::seconds(5)), 0.2);
  EXPECT_GT(backend->stats_for(bed.backend_svc->id).rps(bed.loop.now()), 100.0);
}

TEST(Gateway, ConfigBytesScaleWithPlacement) {
  GatewayTestbed bed;
  EXPECT_GT(bed.gateway->config_bytes(), 0u);
  const auto targets = bed.canal->routing_update_targets();
  EXPECT_FALSE(targets.empty());
  // Far fewer targets than an Istio-style per-pod push.
  EXPECT_LE(targets.size(), bed.gateway->all_backends().size());
}

// ---- Gateway flow memo growth -------------------------------------------

// Drives one backend through `flows` seeded flows, bumping its flow epoch
// every couple of requests per flow in rotation — a replica crash and
// revival, a service re-install, a session reset — and compares every
// request's hit or miss with a fixed 4096-slot direct-mapped table, the
// layout the growable memo replaced. Returns the memo's final size.
std::size_t check_flow_memo_against_reference(std::uint32_t flows,
                                              std::uint64_t seed) {
  GatewayTestbed bed;
  const net::ServiceId service = bed.backend_svc->id;
  GatewayBackend& backend = *bed.gateway->placement_of(service).front();
  const lb::BucketTable* table = backend.bucket_table(service);
  EXPECT_NE(table, nullptr);
  if (table == nullptr) return 0;

  testutil::FullSizeFlowTable<net::FiveTuple> reference;
  std::uint64_t epoch = 0;
  const auto flow = [&](std::uint32_t i) {
    return net::FiveTuple{net::Ipv4Addr(0x0A070000u + i),
                          mesh::service_vip(service), 9999, 443,
                          net::Protocol::kTcp};
  };

  sim::Rng rng(seed);
  std::vector<bool> open(flows, false);
  const std::size_t period = 2 * flows + 50;
  const std::size_t steps = 8 * period;
  std::size_t hits = 0;
  for (std::size_t step = 1; step <= steps; ++step) {
    if (step % period == 0) {
      switch ((step / period) % 3) {
        case 0: {
          const net::ReplicaId replica = backend.replica(0)->id();
          backend.crash_replica(replica);
          backend.revive_replica(replica);
          ++epoch;
          break;
        }
        case 1:
          backend.install_service(*bed.backend_svc);
          ++epoch;
          break;
        default:
          if (backend.reset_service_sessions(service) > 0) ++epoch;
          std::fill(open.begin(), open.end(), false);
          break;
      }
      continue;
    }
    const auto i =
        static_cast<std::uint32_t>(rng.uniform_int(0, flows - 1));
    const net::FiveTuple tuple = flow(i);
    const std::uint64_t hits_before = backend.fastpath_hits();
    http::Request req;
    req.path = "/api";
    std::optional<GatewayOutcome> outcome;
    backend.handle_request(tuple, service, /*new_connection=*/!open[i],
                           /*https=*/false, req,
                           [&](GatewayOutcome o) { outcome = o; });
    bed.loop.run();
    open[i] = true;
    EXPECT_TRUE(outcome.has_value() && outcome->ok);
    const bool hit = backend.fastpath_hits() != hits_before;

    const bool want = reference.find(tuple, epoch) != nullptr;
    if (hit != want) {
      ADD_FAILURE() << "flows " << flows << " step " << step << ": backend "
                    << (hit ? "hit" : "missed");
      return backend.flow_cache_slots();
    }
    // Only single-link chains are memoized.
    if (!want && table->chain(table->bucket_for(tuple)).size() == 1) {
      reference.insert(tuple, epoch);
    }
    if (hit) ++hits;
  }
  EXPECT_GT(hits, 0u);
  return backend.flow_cache_slots();
}

TEST(GatewayFlowMemo, HitsAndMissesMatchFullSizeTable) {
  for (const std::uint32_t flows : {3u, 40u, 700u, 5000u}) {
    const std::size_t slots =
        check_flow_memo_against_reference(flows, 2000 + flows);
    EXPECT_GE(slots, 16u);
    EXPECT_LE(slots, 4096u);
    if (flows == 5000) {
      EXPECT_EQ(slots, 4096u);
    }
  }
}

TEST(GatewayFlowMemo, PinnedFlowsKeepTheMemoSmall) {
  GatewayTestbed bed;
  const net::ServiceId service = bed.backend_svc->id;
  GatewayBackend& backend = *bed.gateway->placement_of(service).front();
  EXPECT_EQ(backend.flow_cache_slots(), 0u);  // nothing memoized yet
  for (int round = 0; round < 20; ++round) {
    if (round % 10 == 9) backend.install_service(*bed.backend_svc);
    for (std::uint16_t port = 1; port <= 8; ++port) {
      const net::FiveTuple tuple{net::Ipv4Addr(10, 7, 0, 1),
                                 mesh::service_vip(service), port, 443,
                                 net::Protocol::kTcp};
      http::Request req;
      req.path = "/api";
      int status = 0;
      backend.handle_request(tuple, service, round == 0, /*https=*/false, req,
                             [&](GatewayOutcome o) { status = o.status; });
      bed.loop.run();
      EXPECT_EQ(status, 200);
    }
  }
  EXPECT_GT(backend.fastpath_hits(), 0u);
  EXPECT_LE(backend.flow_cache_slots(), 64u);
}

// ---- Precise scaling -------------------------------------------------------

struct ScalingTestbed : GatewayTestbed {
  ScalingTestbed() : GatewayTestbed(4, 1) {
    for (auto* backend : gateway->all_backends()) {
      backend->start_sampling(sim::seconds(1));
    }
  }

  /// Drives `rps` into every backend hosting the service for `duration`.
  void drive_load(net::ServiceId service, double rps,
                  sim::Duration duration) {
    const auto deadline = loop.now() + duration;
    while (loop.now() < deadline) {
      loop.run_until(loop.now() + sim::seconds(1));
      for (auto* backend : gateway->placement_of(service)) {
        backend->inject_load(service, rps, sim::seconds(1));
      }
    }
  }
};

TEST(Scaling, ReuseExtendsToColdBackend) {
  ScalingTestbed bed;
  ScalerConfig config;
  config.alert_threshold = 0.6;
  config.reuse_delay_mean = sim::seconds(20);
  PreciseScaler scaler(bed.loop, *bed.gateway, config, sim::Rng(281));
  scaler.start();

  const std::size_t placement_before =
      bed.gateway->placement_of(bed.backend_svc->id).size();
  // Overload the service's backends (2-core replicas, ~90us per request
  // => ~44k RPS saturates a 2-replica backend).
  bed.drive_load(bed.backend_svc->id, 40000.0, sim::minutes(3));
  scaler.stop();

  EXPECT_GE(scaler.reuse_count(), 1u);
  EXPECT_GT(bed.gateway->placement_of(bed.backend_svc->id).size(),
            placement_before);
  // Reuse completes in tens of seconds (Table 4 shape).
  for (const auto& event : scaler.events()) {
    if (event.kind == ScaleKind::kReuse) {
      const double secs =
          sim::to_seconds(event.finish_time - event.alert_time);
      EXPECT_GT(secs, 5.0);
      EXPECT_LT(secs, 120.0);
    }
  }
}

TEST(Scaling, NewProvisionsWhenNoHeadroom) {
  ScalingTestbed bed;
  // Heat up every backend so no Reuse candidate exists.
  for (auto* backend : bed.gateway->all_backends()) {
    for (int tick = 0; tick < 5; ++tick) {
      bed.loop.run_until(bed.loop.now() + sim::seconds(1));
      backend->inject_load(bed.backend_svc->id, 30000.0, sim::seconds(1));
    }
  }
  ScalerConfig config;
  config.alert_threshold = 0.5;
  config.reuse_max_utilization = 0.01;  // force the New path
  PreciseScaler scaler(bed.loop, *bed.gateway, config, sim::Rng(283));
  const std::size_t backends_before = bed.gateway->all_backends().size();

  // Keep the load hot while the scaler reacts.
  scaler.start();
  bed.drive_load(bed.backend_svc->id, 40000.0, sim::minutes(25));
  scaler.stop();

  EXPECT_GE(scaler.new_count(), 1u);
  EXPECT_GT(bed.gateway->all_backends().size(), backends_before);
  for (const auto& event : scaler.events()) {
    if (event.kind == ScaleKind::kNew) {
      // New takes minutes to tens of minutes (Fig 17 / Table 4 shape).
      const double mins =
          sim::to_seconds(event.finish_time - event.execute_time) / 60.0;
      EXPECT_GT(mins, 5.0);
      EXPECT_LT(mins, 45.0);
    }
  }
}

// ---- Anomaly intervention ---------------------------------------------------

TEST(Intervention, SessionFloodTriggersLossyMigration) {
  GatewayTestbed bed(4, 1);
  for (auto* backend : bed.gateway->all_backends()) {
    backend->start_sampling(sim::seconds(1));
  }
  ScalerConfig scaler_config;
  PreciseScaler scaler(bed.loop, *bed.gateway, scaler_config, sim::Rng(293));
  MigrationController migrations(bed.loop, *bed.gateway);
  ResponderConfig responder_config;
  responder_config.alert_threshold = 0.6;
  AnomalyResponder responder(bed.loop, *bed.gateway, scaler, migrations,
                             responder_config);

  // Baseline traffic, then a session flood: many new sessions, flat RPS.
  GatewayBackend* backend =
      bed.gateway->placement_of(bed.backend_svc->id).front();
  for (int t = 0; t < 5; ++t) {
    bed.loop.run_until(bed.loop.now() + sim::seconds(1));
    backend->inject_load(bed.backend_svc->id, 500.0, sim::seconds(1), 0.1);
    responder.check_now();  // records quiet baselines
  }
  // Flood: cram sessions directly into replica session tables.
  for (std::size_t r = 0; r < backend->replica_count(); ++r) {
    auto& sessions = backend->replica(r)->engine().sessions();
    for (std::uint32_t i = 0; i < sessions.capacity(); ++i) {
      net::FiveTuple t{
          net::Ipv4Addr(6, static_cast<std::uint8_t>(i >> 16),
                        static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>(i)),
          net::Ipv4Addr(10, 255, 0, 1), static_cast<std::uint16_t>(i), 443,
          net::Protocol::kTcp};
      sessions.insert(t, bed.backend_svc->id, bed.loop.now());
    }
  }
  bed.loop.run_until(bed.loop.now() + sim::seconds(1));
  backend->inject_load(bed.backend_svc->id, 520.0, sim::seconds(1), 0.9);
  responder.check_now();
  bed.loop.run_until(bed.loop.now() + sim::seconds(5));

  ASSERT_FALSE(responder.events().empty());
  bool saw_lossy = false;
  for (const auto& event : responder.events()) {
    if (event.action == "lossy-migration") saw_lossy = true;
  }
  EXPECT_TRUE(saw_lossy);
  ASSERT_FALSE(migrations.records().empty());
  const auto& record = migrations.records().front();
  EXPECT_EQ(record.kind, MigrationKind::kLossy);
  EXPECT_GT(record.sessions_reset, 0u);
  // Lossy migration completes within seconds.
  ASSERT_TRUE(record.completed.has_value());
  EXPECT_LE(*record.completed - record.started, sim::seconds(5));
  // The service now lives in the sandbox.
  const auto placement = bed.gateway->placement_of(bed.backend_svc->id);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_TRUE(placement.front()->is_sandbox());
}

TEST(Intervention, LosslessMigrationWaitsForDrain) {
  GatewayTestbed bed(4, 1);
  GatewayBackend* backend =
      bed.gateway->placement_of(bed.backend_svc->id).front();
  backend->start_sampling(sim::seconds(10));
  // Long-lived sessions on the old backend.
  auto& sessions = backend->replica(0)->engine().sessions();
  for (std::uint16_t i = 0; i < 100; ++i) {
    net::FiveTuple t{net::Ipv4Addr(9, 9, 9, 9), net::Ipv4Addr(10, 255, 0, 1),
                     i, 443, net::Protocol::kTcp};
    sessions.insert(t, bed.backend_svc->id, bed.loop.now());
  }
  MigrationController migrations(bed.loop, *bed.gateway);
  migrations.migrate_lossless(bed.backend_svc->id, static_cast<net::AzId>(0));
  EXPECT_EQ(migrations.in_progress(), 1u);

  // New placement is effective immediately (new sessions -> sandbox)...
  EXPECT_TRUE(
      bed.gateway->placement_of(bed.backend_svc->id).front()->is_sandbox());
  // ...but completion waits for the old sessions to age out
  // (session_idle_timeout = 15 min by default).
  bed.loop.run_until(bed.loop.now() + sim::minutes(5));
  EXPECT_EQ(migrations.in_progress(), 1u);
  bed.loop.run_until(bed.loop.now() + sim::minutes(30));
  EXPECT_EQ(migrations.in_progress(), 0u);
  const auto& record = migrations.records().front();
  ASSERT_TRUE(record.completed.has_value());
  const double minutes =
      sim::to_seconds(*record.completed - record.started) / 60.0;
  EXPECT_GT(minutes, 10.0);  // ~ the paper's ~20 min median
  EXPECT_LT(minutes, 40.0);
}

TEST(Intervention, TenantGuardThrottlesAndReleases) {
  GatewayTestbed bed(4, 1);
  TenantGuard::Config config;
  config.cluster_alert_utilization = 0.8;
  config.cluster_recovered_utilization = 0.3;
  TenantGuard guard(bed.loop, *bed.gateway, bed.cluster, config);

  // Saturate the user cluster's nodes.
  for (const auto& node : bed.cluster.nodes()) {
    for (std::size_t c = 0; c < node->cpu().size(); ++c) {
      node->cpu().core(c).execute(sim::seconds(10));
    }
  }
  bed.loop.run_until(bed.loop.now() + sim::seconds(5));
  guard.check_now();
  EXPECT_TRUE(guard.throttling());
  bool any_throttle = false;
  for (auto* backend : bed.gateway->placement_of(bed.backend_svc->id)) {
    if (backend->throttle_of(bed.backend_svc->id)) any_throttle = true;
  }
  EXPECT_TRUE(any_throttle);

  // Cluster recovers -> throttle lifted.
  bed.loop.run_until(bed.loop.now() + sim::seconds(60));
  guard.check_now();
  EXPECT_FALSE(guard.throttling());
  for (auto* backend : bed.gateway->placement_of(bed.backend_svc->id)) {
    EXPECT_FALSE(backend->throttle_of(bed.backend_svc->id).has_value());
  }
}

// ---- Health-check aggregation ----------------------------------------------

HealthCheckTopology table6_like_case() {
  HealthCheckTopology topology;
  topology.replicas_per_backend = 3;
  topology.cores_per_replica = 4;
  // Two services sharing one app on one backend, a third elsewhere.
  topology.services.push_back(
      {static_cast<net::ServiceId>(1),
       {static_cast<net::PodId>(1), static_cast<net::PodId>(2),
        static_cast<net::PodId>(3)},
       {static_cast<net::BackendId>(1), static_cast<net::BackendId>(2)}});
  topology.services.push_back({static_cast<net::ServiceId>(2),
                               {static_cast<net::PodId>(3),
                                static_cast<net::PodId>(4)},
                               {static_cast<net::BackendId>(1)}});
  return topology;
}

TEST(HealthAggregation, EachLevelReduces) {
  const auto load = compute_health_check_load(table6_like_case());
  EXPECT_GT(load.base, load.service_level);
  EXPECT_GT(load.service_level, load.core_level);
  EXPECT_GT(load.core_level, load.replica_level);
  EXPECT_GT(load.reduction(), 0.9);
}

TEST(HealthAggregation, ServiceLevelMergesOverlaps) {
  auto topology = table6_like_case();
  const auto with_overlap = compute_health_check_load(topology);
  // Remove the shared app: service-level aggregation saves nothing.
  topology.services[1].apps = {static_cast<net::PodId>(5),
                               static_cast<net::PodId>(6)};
  const auto without_overlap = compute_health_check_load(topology);
  EXPECT_LT(with_overlap.service_level, without_overlap.service_level);
  EXPECT_EQ(without_overlap.base, without_overlap.service_level);
}

TEST(HealthAggregation, ProxyDeduplicatesTargets) {
  sim::EventLoop loop;
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(1), sim::Rng(307));
  cluster.add_node(static_cast<net::AzId>(0), 4);
  auto& s1 = cluster.add_service("a");
  auto& s2 = cluster.add_service("b");
  k8s::Pod& shared = cluster.add_pod(s1, k8s::AppProfile{});
  shared.set_phase(k8s::PodPhase::kRunning);
  s2.endpoints.push_back(&shared);  // pod serves both services
  k8s::Pod& solo = cluster.add_pod(s2, k8s::AppProfile{});
  solo.set_phase(k8s::PodPhase::kRunning);

  HealthCheckProxy proxy(loop, sim::seconds(1));
  proxy.add_service(s1.id, s1.endpoints);
  proxy.add_service(s2.id, s2.endpoints);
  EXPECT_EQ(proxy.distinct_targets(), 2u);
  proxy.start(sim::seconds(1));
  loop.run_until(sim::seconds(10));
  proxy.stop();
  // One probe per distinct pod per tick (t=1..10), regardless of overlap.
  EXPECT_EQ(proxy.probes_sent(), 20u);
  EXPECT_TRUE(proxy.healthy(&shared));
}

// ---- In-phase migration ------------------------------------------------------

TEST(InPhaseMigration, PlansMoveForSynchronizedServices) {
  GatewayTestbed bed(6, 1);
  GatewayBackend* source =
      bed.gateway->placement_of(bed.backend_svc->id).front();
  for (auto* backend : bed.gateway->all_backends()) {
    backend->start_sampling(sim::minutes(10));
  }
  bed.gateway->extend_service(bed.frontend->id, *source);

  // 26h of synchronized diurnal load so the trailing 24h window has data.
  for (int hour = 0; hour < 26; ++hour) {
    bed.loop.run_until(bed.loop.now() + sim::hours(1));
    const double phase =
        std::sin((hour - 6) / 24.0 * 2 * 3.14159265);
    const double rps = 600.0 + 500.0 * phase;
    source->inject_load(bed.backend_svc->id, rps, sim::minutes(1), 0.1, 0.8);
    source->inject_load(bed.frontend->id, rps * 0.6, sim::minutes(1), 0.1,
                        0.2);
  }

  InPhaseMigrationPlanner planner;
  const auto pairs = planner.find_in_phase(
      *source, bed.loop.now() - sim::hours(24), bed.loop.now());
  ASSERT_FALSE(pairs.empty());

  const auto plans = planner.plan(*bed.gateway, *source, bed.loop.now());
  ASSERT_FALSE(plans.empty());
  // The HTTPS-heavier backend service ranks first for migration.
  EXPECT_EQ(plans.front().service, bed.backend_svc->id);
  EXPECT_NE(plans.front().target, source->id());
  GatewayBackend* target = bed.gateway->find_backend(plans.front().target);
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->az(), source->az());
}

TEST(InPhaseMigration, NoPlanWithoutSynchronizedLoad) {
  GatewayTestbed bed(4, 1);
  GatewayBackend* source =
      bed.gateway->placement_of(bed.backend_svc->id).front();
  source->start_sampling(sim::minutes(10));
  InPhaseMigrationPlanner planner;
  EXPECT_TRUE(planner.plan(*bed.gateway, *source, bed.loop.now()).empty());
}

// ---- Cost model -------------------------------------------------------------

TEST(CostModel, SavingsOrdering) {
  RegionCostProfile profile;
  const auto costs = compute_region_costs(profile);
  EXPECT_GT(costs.baseline, costs.with_redirector);
  EXPECT_GT(costs.baseline, costs.with_tunneling);
  EXPECT_LT(costs.with_both, costs.with_redirector);
  EXPECT_LT(costs.with_both, costs.with_tunneling);
  // Table 5 band: combined savings 55%-70%.
  EXPECT_GT(costs.combined_saving(), 0.4);
  EXPECT_LT(costs.combined_saving(), 0.8);
}

TEST(CostModel, TunnelingOnlyHelpsWhenSessionBound) {
  RegionCostProfile profile;
  profile.total_sessions = 1e4;  // CPU-bound region: sessions never bind
  const auto costs = compute_region_costs(profile);
  EXPECT_DOUBLE_EQ(costs.tunneling_saving(), 0.0);
}

// ---- Population model ---------------------------------------------------------

TEST(Population, AdoptionMatchesRegionProfile) {
  PopulationGenerator generator(sim::Rng(311));
  RegionProfile region;
  region.name = "region-1";
  region.tenants = 2000;
  region.l7_prob = 0.9;
  region.routing_given_l7 = 0.95;
  region.security_given_l7 = 0.3;
  const auto tenants = generator.generate(region);
  const auto adoption = PopulationGenerator::summarize("region-1", tenants);
  EXPECT_NEAR(adoption.l7, 0.9, 0.03);
  EXPECT_NEAR(adoption.l7_routing, 0.9 * 0.95, 0.03);
  EXPECT_NEAR(adoption.l7_security, 0.9 * 0.3, 0.03);
  // Routing is a subset of L7 users.
  EXPECT_LE(adoption.l7_routing, adoption.l7);
}

TEST(Population, SidecarFootprintScalesWithPods) {
  sim::Rng rng(313);
  const auto small = sidecar_footprint(60, 400, rng);
  const auto large = sidecar_footprint(500, 15000, rng);
  EXPECT_GT(large.cpu_cores, small.cpu_cores);
  EXPECT_GT(large.memory_gb, small.memory_gb);
  // Table 1 band: sidecars eat ~4-30% of cluster resources.
  EXPECT_GT(large.cpu_fraction, 0.02);
  EXPECT_LT(large.cpu_fraction, 0.4);
}

TEST(Population, UpdateFrequencyGrowsWithClusterSize) {
  sim::Rng rng(317);
  double small_sum = 0, large_sum = 0;
  for (int i = 0; i < 20; ++i) {
    small_sum += config_update_frequency_per_min(300, rng);
    large_sum += config_update_frequency_per_min(2500, rng);
  }
  EXPECT_GT(large_sum, small_sum * 3);
}

TEST(Population, GrowthTraceDoubles) {
  sim::Rng rng(331);
  // ~9 quarters at 1.09x quarterly ≈ 2x (Fig 3: doubling 2020->2022).
  const auto trace = sidecar_growth_trace(23000, 9, 1.09, rng);
  ASSERT_EQ(trace.size(), 9u);
  EXPECT_NEAR(trace.back() / trace.front(), 2.0, 0.5);
}

}  // namespace
}  // namespace canal::core
