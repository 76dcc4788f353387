// Cross-system integration tests: all four dataplanes under identical
// workloads, the proxyless mode (Appendix B), keyless deployment, the
// innocence prober (§6.4), controller-driven configuration flows, and
// end-to-end recovery scenarios.
#include <gtest/gtest.h>

#include "canal/canal_mesh.h"
#include "canal/innocence.h"
#include "canal/proxyless.h"
#include "mesh/ambient.h"
#include "mesh/istio.h"

namespace canal {
namespace {

struct World {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(1), sim::Rng(1009)};
  k8s::Service* api = nullptr;
  k8s::Service* web = nullptr;
  k8s::Pod* client = nullptr;
  std::unique_ptr<core::MeshGateway> gateway;
  std::unique_ptr<core::CanalMesh> canal;
  std::unique_ptr<crypto::KeyServer> key_server;

  World() {
    cluster.add_node(static_cast<net::AzId>(0), 16);
    cluster.add_node(static_cast<net::AzId>(0), 16);
    api = &cluster.add_service("api");
    web = &cluster.add_service("web");
    k8s::AppProfile profile;
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = sim::milliseconds(1);
    profile.sigma = 0.05;
    for (int i = 0; i < 4; ++i) {
      cluster.add_pod(*api, profile).set_phase(k8s::PodPhase::kRunning);
    }
    client = &cluster.add_pod(*web, profile);
    client->set_phase(k8s::PodPhase::kRunning);
  }

  void build_canal(std::size_t azs = 1) {
    gateway = std::make_unique<core::MeshGateway>(
        loop, core::GatewayConfig{}, sim::Rng(1013));
    for (std::size_t a = 0; a < azs; ++a) gateway->add_az(3);
    key_server = std::make_unique<crypto::KeyServer>(
        loop, static_cast<net::AzId>(0), 8, sim::Rng(1019));
    canal = std::make_unique<core::CanalMesh>(
        loop, cluster, *gateway, core::CanalMesh::Config{}, sim::Rng(1021));
    canal->install();
    canal->attach_key_server(static_cast<net::AzId>(0), key_server.get());
  }

  mesh::RequestResult one(mesh::MeshDataplane& mesh,
                          bool new_connection = true) {
    std::optional<mesh::RequestResult> result;
    mesh::RequestOptions opts;
    opts.client = client;
    opts.dst_service = api->id;
    opts.new_connection = new_connection;
    mesh.send_request(opts, [&](mesh::RequestResult r) { result = r; });
    loop.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(mesh::RequestResult{});
  }
};

// ---- Cross-dataplane invariants -------------------------------------------

TEST(CrossMesh, AllDataplanesServeTheSameWorkload) {
  World world;
  world.build_canal();
  mesh::NoMesh nomesh(world.loop, world.cluster);
  mesh::IstioMesh istio(world.loop, world.cluster, mesh::IstioMesh::Config{},
                        sim::Rng(1031));
  istio.install();
  mesh::AmbientMesh ambient(world.loop, world.cluster,
                            mesh::AmbientMesh::Config{}, sim::Rng(1033));
  ambient.install();

  EXPECT_EQ(world.one(nomesh).status, 200);
  EXPECT_EQ(world.one(istio).status, 200);
  EXPECT_EQ(world.one(ambient).status, 200);
  EXPECT_EQ(world.one(*world.canal).status, 200);
}

TEST(CrossMesh, ProxyCountOrdering) {
  World world;
  world.build_canal();
  mesh::IstioMesh istio(world.loop, world.cluster, mesh::IstioMesh::Config{},
                        sim::Rng(1039));
  istio.install();
  mesh::AmbientMesh ambient(world.loop, world.cluster,
                            mesh::AmbientMesh::Config{}, sim::Rng(1049));
  ambient.install();
  // O(pods) > O(nodes + services) — and Canal's control-plane entities are
  // gateway backends + on-node proxies.
  EXPECT_GT(istio.proxy_count(), ambient.proxy_count());
  EXPECT_EQ(istio.proxy_count(), world.cluster.pod_count());
  EXPECT_EQ(ambient.proxy_count(),
            world.cluster.nodes().size() + world.cluster.services().size());
}

TEST(CrossMesh, SouthboundBytesOrdering) {
  World world;
  world.build_canal();
  mesh::IstioMesh istio(world.loop, world.cluster, mesh::IstioMesh::Config{},
                        sim::Rng(1051));
  istio.install();
  mesh::AmbientMesh ambient(world.loop, world.cluster,
                            mesh::AmbientMesh::Config{}, sim::Rng(1061));
  ambient.install();
  auto bytes = [](const std::vector<k8s::ConfigTarget>& targets) {
    std::uint64_t total = 0;
    for (const auto& t : targets) total += t.config_bytes;
    return total;
  };
  const auto istio_bytes = bytes(istio.routing_update_targets());
  const auto ambient_bytes = bytes(ambient.routing_update_targets());
  const auto canal_bytes = bytes(world.canal->routing_update_targets());
  // Istio's per-pod full push dominates at any scale. Canal vs Ambient
  // depends on cluster shape: Canal wins at production ratios
  // (pods >> gateway backends, see bench_control_plane fig15); at this
  // toy scale only the Istio ordering is scale-independent.
  EXPECT_GT(istio_bytes, ambient_bytes);
  EXPECT_GT(istio_bytes, canal_bytes);
}

TEST(CrossMesh, UserCpuOrderingUnderLoad) {
  World world;
  world.build_canal();
  mesh::IstioMesh istio(world.loop, world.cluster, mesh::IstioMesh::Config{},
                        sim::Rng(1063));
  istio.install();
  mesh::AmbientMesh ambient(world.loop, world.cluster,
                            mesh::AmbientMesh::Config{}, sim::Rng(1069));
  ambient.install();
  for (int i = 0; i < 50; ++i) {
    world.one(istio, false);
    world.one(ambient, false);
    world.one(*world.canal, false);
  }
  EXPECT_GT(istio.user_cpu_core_seconds(), ambient.user_cpu_core_seconds());
  EXPECT_GT(ambient.user_cpu_core_seconds(),
            world.canal->user_cpu_core_seconds());
  // Canal's total includes the cloud-side gateway.
  EXPECT_GT(world.canal->total_cpu_core_seconds(),
            world.canal->user_cpu_core_seconds());
}

TEST(CrossMesh, TraceShowsCanalStagesAbsentFromNoMesh) {
  World world;
  world.build_canal();
  mesh::NoMesh nomesh(world.loop, world.cluster);

  auto traced = [&](mesh::MeshDataplane& mesh) {
    std::optional<mesh::RequestResult> result;
    mesh::RequestOptions opts;
    opts.client = world.client;
    opts.dst_service = world.api->id;
    opts.new_connection = true;
    opts.trace = true;
    mesh.send_request(opts, [&](mesh::RequestResult r) { result = r; });
    world.loop.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(mesh::RequestResult{});
  };

  // The Canal path pays the redirector, gateway L7, and VXLAN
  // disaggregation stages; the no-mesh path is links + app only.
  const auto canal = traced(*world.canal);
  ASSERT_NE(canal.trace, nullptr);
  EXPECT_TRUE(canal.trace->has(telemetry::Component::kRedirect));
  EXPECT_TRUE(canal.trace->has(telemetry::Component::kL7));
  EXPECT_TRUE(canal.trace->has(telemetry::Component::kDisaggregation));

  const auto bare = traced(nomesh);
  ASSERT_NE(bare.trace, nullptr);
  EXPECT_FALSE(bare.trace->has(telemetry::Component::kRedirect));
  EXPECT_FALSE(bare.trace->has(telemetry::Component::kL7));
  EXPECT_FALSE(bare.trace->has(telemetry::Component::kDisaggregation));
  EXPECT_TRUE(bare.trace->has(telemetry::Component::kApp));
}

// ---- Controller-driven configuration flow ----------------------------------

TEST(ControllerFlow, PodCreationEndToEnd) {
  World world;
  world.build_canal();
  k8s::SouthboundChannel southbound(world.loop, 1'000'000'000);
  k8s::Controller controller(world.loop, 4, southbound);

  // Create a pod; it becomes Running only after its config is delivered.
  k8s::AppProfile profile;
  profile.fast_service_mean = sim::milliseconds(1);
  k8s::Pod& fresh = world.cluster.add_pod(*world.api, profile);
  EXPECT_FALSE(fresh.ready());
  const auto targets = world.canal->pod_create_targets({&fresh});
  ASSERT_FALSE(targets.empty());
  bool configured = false;
  controller.push_update(targets, [&](k8s::PushReport report) {
    EXPECT_GT(report.total_time, 0);
    fresh.set_phase(k8s::PodPhase::kRunning);
    world.canal->on_pod_created(fresh);
    configured = true;
  });
  world.loop.run();
  EXPECT_TRUE(configured);

  // The new pod is now reachable through the mesh (round-robin reaches it
  // within #endpoints requests).
  // Each gateway replica keeps its own round-robin cursor and ECMP fans
  // connections across replicas, so probe several rounds of endpoints.
  bool served_by_fresh = false;
  for (std::size_t i = 0; i < 8 * world.api->endpoints.size(); ++i) {
    if (world.one(*world.canal).served_by == fresh.id()) {
      served_by_fresh = true;
    }
  }
  EXPECT_TRUE(served_by_fresh);
}

// ---- Proxyless mode (Appendix B) -------------------------------------------

struct ProxylessWorld : World {
  std::unique_ptr<core::ProxylessMesh> proxyless;

  void build_proxyless(core::ProxylessMesh::Config config = {}) {
    gateway = std::make_unique<core::MeshGateway>(
        loop, core::GatewayConfig{}, sim::Rng(1087));
    gateway->add_az(3);
    proxyless = std::make_unique<core::ProxylessMesh>(
        loop, cluster, *gateway, config, sim::Rng(1091));
  }
};

TEST(Proxyless, ServesRequestsWithoutAnyProxy) {
  ProxylessWorld world;
  world.build_proxyless();
  EXPECT_EQ(world.proxyless->install(), 0u);  // all ENIs allocated
  EXPECT_EQ(world.proxyless->proxy_count(), 0u);
  const auto result = world.one(*world.proxyless);
  EXPECT_EQ(result.status, 200);
  EXPECT_GT(world.proxyless->gateway_observed_requests(), 0u);
}

TEST(Proxyless, UnauthenticatedPodRejected) {
  ProxylessWorld world;
  world.build_proxyless();
  world.proxyless->install();
  // Revoke the client's ENI: its traffic can no longer be verified.
  world.proxyless->enis().release(world.client->id());
  EXPECT_EQ(world.one(*world.proxyless).status, 403);
}

TEST(Proxyless, EniLimitBlocksExcessPods) {
  ProxylessWorld world;
  core::ProxylessMesh::Config config;
  config.eni.max_enis_per_node = 2;  // tiny limit
  world.build_proxyless(config);
  const std::size_t failed = world.proxyless->install();
  // 5 pods on 2 nodes with 2 ENIs per node => at least one pod fails.
  EXPECT_GE(failed, 1u);
}

TEST(Proxyless, EniMemoryAccounting) {
  core::EniRegistry registry(core::EniRegistry::Config{4, 1024});
  sim::EventLoop loop;
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(2), sim::Rng(1093));
  k8s::Node& node = cluster.add_node(static_cast<net::AzId>(0), 4);
  k8s::Service& service = cluster.add_service("s");
  k8s::Pod& p1 = cluster.add_pod(service, k8s::AppProfile{}, &node);
  k8s::Pod& p2 = cluster.add_pod(service, k8s::AppProfile{}, &node);
  EXPECT_TRUE(registry.allocate(p1).has_value());
  EXPECT_TRUE(registry.allocate(p2).has_value());
  EXPECT_EQ(registry.allocated_on(node), 2u);
  EXPECT_EQ(registry.memory_bytes_on(node), 2048u);
  registry.release(p1.id());
  EXPECT_EQ(registry.allocated_on(node), 1u);
  EXPECT_FALSE(registry.authenticated(p1.id()));
  // Idempotent double-allocation returns the same ENI.
  const auto first = registry.allocate(p2);
  const auto second = registry.allocate(p2);
  EXPECT_EQ(first, second);
}

TEST(Proxyless, UserManagedCertsCostNodeCpu) {
  ProxylessWorld managed;
  core::ProxylessMesh::Config config;
  config.user_managed_certs = true;
  managed.build_proxyless(config);
  managed.proxyless->install();
  managed.one(*managed.proxyless);
  EXPECT_GT(managed.proxyless->user_cpu_core_seconds(), 0.0);

  ProxylessWorld trusted;
  core::ProxylessMesh::Config trusted_config;
  trusted_config.user_managed_certs = false;  // gateway-terminated TLS
  trusted.build_proxyless(trusted_config);
  trusted.proxyless->install();
  trusted.one(*trusted.proxyless);
  EXPECT_DOUBLE_EQ(trusted.proxyless->user_cpu_core_seconds(), 0.0);
}

TEST(Proxyless, ControlPlaneIsGatewayPlusDnsEni) {
  ProxylessWorld world;
  world.build_proxyless();
  world.proxyless->install();
  k8s::Pod& fresh = world.cluster.add_pod(*world.api, k8s::AppProfile{});
  const auto targets = world.proxyless->pod_create_targets({&fresh});
  bool has_dns_eni = false;
  for (const auto& target : targets) {
    if (target.name.starts_with("dns-eni-")) has_dns_eni = true;
  }
  EXPECT_TRUE(has_dns_eni);
}

// ---- Keyless mode (Appendix B) ---------------------------------------------

TEST(Keyless, CustomerPremisesKeyServerServesHandshakes) {
  World world;
  world.build_canal();
  // The customer refuses to enroll keys with the cloud: they run their own
  // key server in their IDC, reached over a longer path.
  crypto::KeyServer customer_ks(world.loop, static_cast<net::AzId>(7), 4,
                                sim::Rng(1097));
  world.canal->attach_key_server(static_cast<net::AzId>(0), &customer_ks);
  const auto result = world.one(*world.canal, /*new_connection=*/true);
  EXPECT_EQ(result.status, 200);
  EXPECT_GT(customer_ks.requests_served(), 0u);
  // The cloud key server saw none of this tenant's handshakes.
  EXPECT_EQ(world.key_server->requests_served(), 0u);
}

TEST(Keyless, FallsBackToLocalCryptoWhenServerUnreachable) {
  World world;
  world.build_canal();
  world.key_server->set_available(false);
  const auto result = world.one(*world.canal, true);
  EXPECT_EQ(result.status, 200);  // software fallback keeps the mesh alive
  auto* proxy = world.canal->proxy_for(world.client->node());
  ASSERT_NE(proxy, nullptr);
  EXPECT_GT(proxy->key_client().fallback_signs(), 0u);
}

// ---- Innocence prober (§6.4) ----------------------------------------------

TEST(Innocence, FullMeshProbesAcrossAzsAndProtocols) {
  World world;
  world.build_canal(/*azs=*/2);
  core::InnocenceProber::Config config;
  config.probe_interval = sim::seconds(5);
  core::InnocenceProber prober(world.loop, *world.canal, world.cluster,
                               config);
  prober.deploy({static_cast<net::AzId>(0), static_cast<net::AzId>(1)});
  // 2 AZs x 4 protocols.
  EXPECT_EQ(prober.instances().size(), 8u);
  prober.start();
  world.loop.run_until(world.loop.now() + sim::seconds(30));
  prober.stop();
  world.loop.run_until(world.loop.now() + sim::seconds(5));

  // Every ordered pair of distinct instances was probed.
  EXPECT_EQ(prober.matrix().size(), 8u * 7u);
  EXPECT_TRUE(prober.infra_innocent());
  for (const auto& [key, cell] : prober.matrix()) {
    EXPECT_GT(cell.ok, 0u);
    EXPECT_GT(cell.latency_us.mean(), 0.0);
  }
}

TEST(Innocence, DetectsGatewayFault) {
  World world;
  world.build_canal();
  core::InnocenceProber::Config config;
  config.probe_interval = sim::seconds(5);
  core::InnocenceProber prober(world.loop, *world.canal, world.cluster,
                               config);
  prober.deploy({static_cast<net::AzId>(0)});
  prober.start();
  world.loop.run_until(world.loop.now() + sim::seconds(10));

  // Kill every backend hosting one probe service: its cells must go red.
  const auto& victim = prober.instances().front();
  for (auto* backend : world.gateway->placement_of(victim.service->id)) {
    backend->fail_all_replicas();
  }
  world.loop.run_until(world.loop.now() + sim::seconds(60));
  prober.stop();
  world.loop.run_until(world.loop.now() + sim::seconds(5));

  EXPECT_FALSE(prober.infra_innocent());
  const auto unhealthy = prober.unhealthy_cells();
  ASSERT_FALSE(unhealthy.empty());
  // Every probe aimed at the victim instance must be red. (With only 3
  // backends in the AZ, shuffle-shard overlap means other instances that
  // shared the dead backends may degrade too — that is expected.)
  std::set<std::size_t> red_destinations;
  for (const auto& [src, dst] : unhealthy) {
    red_destinations.insert(dst);
  }
  EXPECT_TRUE(red_destinations.contains(0u));
}

TEST(Innocence, ProtocolNames) {
  EXPECT_EQ(core::probe_protocol_name(core::ProbeProtocol::kGrpc), "grpc");
  EXPECT_EQ(core::probe_protocol_name(core::ProbeProtocol::kWebSocket),
            "websocket");
}

// ---- End-to-end recovery ----------------------------------------------------

TEST(Recovery, ReplicaRecoveryRestoresEcmpMembership) {
  World world;
  world.build_canal();
  core::GatewayBackend* backend =
      world.gateway->resolve(world.api->id, static_cast<net::AzId>(0));
  ASSERT_NE(backend, nullptr);
  const auto replica_id = backend->replica(0)->id();
  backend->fail_replica(replica_id);
  EXPECT_EQ(world.one(*world.canal).status, 200);
  backend->recover_replica(replica_id);
  EXPECT_TRUE(backend->replica(0)->alive());
  // The recovered replica heads buckets again (takes over a share).
  const auto* table = backend->bucket_table(world.api->id);
  ASSERT_NE(table, nullptr);
  EXPECT_GT(table->buckets_headed_by(replica_id), 0u);
  EXPECT_EQ(world.one(*world.canal).status, 200);
}

TEST(Recovery, FullBackendRecoveryLeavesNoEmptyBuckets) {
  World world;
  world.build_canal();
  core::GatewayBackend* backend =
      world.gateway->resolve(world.api->id, static_cast<net::AzId>(0));
  backend->fail_all_replicas();
  for (std::size_t r = 0; r < backend->replica_count(); ++r) {
    backend->recover_replica(backend->replica(r)->id());
  }
  const auto* table = backend->bucket_table(world.api->id);
  ASSERT_NE(table, nullptr);
  for (std::size_t b = 0; b < table->bucket_count(); ++b) {
    EXPECT_FALSE(table->chain(b).empty()) << "bucket " << b << " blackholes";
  }
  EXPECT_EQ(world.one(*world.canal).status, 200);
}

TEST(Recovery, VniAllocationIsGloballyUnique) {
  sim::EventLoop loop;
  core::MeshGateway gateway(loop, core::GatewayConfig{}, sim::Rng(1103));
  gateway.add_az(2);
  std::set<std::uint32_t> vnis;
  // Two tenants, each with several services, sharing the gateway.
  for (int tenant = 1; tenant <= 2; ++tenant) {
    auto cluster = std::make_unique<k8s::Cluster>(
        loop, static_cast<net::TenantId>(tenant), sim::Rng(1100 + tenant));
    cluster->add_node(static_cast<net::AzId>(0), 4);
    for (int s = 0; s < 3; ++s) {
      auto& service = cluster->add_service("svc" + std::to_string(s));
      cluster->add_pod(service, k8s::AppProfile{})
          .set_phase(k8s::PodPhase::kRunning);
    }
    auto mesh = std::make_unique<core::CanalMesh>(
        loop, *cluster, gateway, core::CanalMesh::Config{},
        sim::Rng(1110 + tenant));
    mesh->install();
    for (const auto& service : cluster->services()) {
      const std::uint32_t vni = mesh->vni_of(service->id);
      EXPECT_TRUE(vnis.insert(vni).second)
          << "VNI " << vni << " reused across tenants";
    }
    // Keep alive until end of scope check — we only needed the VNIs.
  }
  EXPECT_EQ(vnis.size(), 6u);
}

// ---- Property sweep: mesh correctness under random mixed workloads ---------

class WorkloadSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadSweep, CanalNeverLosesRequestsBelowSaturation) {
  World world;
  world.build_canal();
  sim::Rng rng(GetParam());
  int sent = 0, ok = 0;
  const sim::TimePoint start = world.loop.now();
  for (int i = 0; i < 300; ++i) {
    const auto at =
        start + static_cast<sim::Duration>(rng.uniform(0, 2e9));
    world.loop.post_at(at, [&] {
      mesh::RequestOptions opts;
      opts.client = world.client;
      opts.dst_service = world.api->id;
      opts.new_connection = rng.chance(0.5);
      opts.request_bytes =
          static_cast<std::uint32_t>(rng.uniform_int(16, 8192));
      world.canal->send_request(opts, [&](mesh::RequestResult r) {
        ++sent;
        if (r.ok()) ++ok;
      });
    });
  }
  world.loop.run();
  EXPECT_EQ(sent, 300);
  EXPECT_EQ(ok, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSweep,
                         ::testing::Values(7u, 77u, 777u, 7777u));

}  // namespace
}  // namespace canal
