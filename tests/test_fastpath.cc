// Fastpath cache tests: the per-flow memo of route-match + upstream
// selection must hit on repeated traffic from an established flow and must
// miss (re-deriving the decision on the slow path) after every event that
// could change the decision: an endpoint diff, a route-config install, a
// session drop/reset, and gateway-side topology changes or session resets.
// Gateway idle expiry changes no memoized decision and keeps them. A hit
// must never change simulated behaviour — only skip wall-clock work — so
// each test also checks the served result stays consistent.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "mesh/dataplane.h"
#include "mesh/istio.h"
#include "proxy/engine.h"

namespace canal {
namespace {

// ---- ProxyEngine-level invalidation matrix -------------------------------

struct EngineBed {
  sim::EventLoop loop;
  sim::CpuSet cpu{loop, 2};
  proxy::ProxyEngine engine;
  net::ServiceId svc = static_cast<net::ServiceId>(1);
  net::FiveTuple tuple{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(240, 0, 0, 1),
                       5555, 443, net::Protocol::kTcp};

  explicit EngineBed(bool l7 = true)
      : engine(loop, cpu, make_config(l7), sim::Rng(31)) {}

  static proxy::ProxyEngine::Config make_config(bool l7) {
    proxy::ProxyEngine::Config config;
    config.name = "eng";
    config.l7 = l7;
    return config;
  }

  void install_plain_route(const std::string& cluster_name) {
    http::RouteTable table;
    http::RouteRule rule;
    rule.name = "default";
    rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
    rule.match.path = std::string(1, '/');
    rule.action.clusters.push_back({cluster_name, 1});
    table.add_rule(std::move(rule));
    engine.set_route_table(svc, std::move(table));
  }

  proxy::UpstreamCluster& add_cluster_with_endpoint(const std::string& name,
                                                    std::uint64_t key) {
    auto& cluster = engine.clusters().add_cluster(name);
    cluster.add_endpoint(net::Endpoint{net::Ipv4Addr(10, 1, 0, 1), 8080}, key);
    return cluster;
  }

  proxy::ProxyEngine::RequestOutcome run(bool new_connection = false) {
    http::Request req;
    req.path = "/api";
    std::optional<proxy::ProxyEngine::RequestOutcome> out;
    engine.handle_request(tuple, svc, new_connection, req,
                          [&](proxy::ProxyEngine::RequestOutcome o) { out = o; });
    loop.run();
    EXPECT_TRUE(out.has_value());
    return out.value_or(proxy::ProxyEngine::RequestOutcome{});
  }
};

TEST(FastpathEngine, RepeatedFlowHitsAfterFirstMiss) {
  EngineBed bed;
  bed.add_cluster_with_endpoint("a", 1);
  bed.install_plain_route("a");
  EXPECT_EQ(bed.run(/*new_connection=*/true).cluster, "a");
  EXPECT_EQ(bed.engine.fastpath_misses(), 1u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(bed.run().cluster, "a");
  EXPECT_EQ(bed.engine.fastpath_hits(), 4u);
  EXPECT_EQ(bed.engine.fastpath_misses(), 1u);
}

TEST(FastpathEngine, EndpointDiffInvalidates) {
  EngineBed bed;
  auto& cluster = bed.add_cluster_with_endpoint("a", 1);
  bed.install_plain_route("a");
  bed.run(/*new_connection=*/true);
  bed.run();
  EXPECT_EQ(bed.engine.fastpath_hits(), 1u);
  // An endpoint membership change (what refresh_endpoints produces when the
  // desired set differs) must force a re-derive on the next request.
  cluster.add_endpoint(net::Endpoint{net::Ipv4Addr(10, 1, 0, 2), 8080}, 2);
  EXPECT_EQ(bed.run().cluster, "a");
  EXPECT_EQ(bed.engine.fastpath_hits(), 1u);
  EXPECT_EQ(bed.engine.fastpath_misses(), 2u);
  // The refreshed decision is memoized again.
  bed.run();
  EXPECT_EQ(bed.engine.fastpath_hits(), 2u);
}

TEST(FastpathEngine, RouteConfigChangeInvalidates) {
  EngineBed bed;
  bed.add_cluster_with_endpoint("a", 1);
  bed.add_cluster_with_endpoint("b", 2);
  bed.install_plain_route("a");
  bed.run(/*new_connection=*/true);
  bed.run();
  EXPECT_EQ(bed.engine.fastpath_hits(), 1u);
  // Install a weighted split: the cached rule pointer is stale, so the next
  // request must miss, then the split itself becomes cacheable again.
  http::RouteTable split;
  http::RouteRule rule;
  rule.name = "split";
  rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  rule.match.path = std::string(1, '/');
  rule.action.clusters.push_back({"a", 1});
  rule.action.clusters.push_back({"b", 1});
  split.add_rule(std::move(rule));
  bed.engine.set_route_table(bed.svc, std::move(split));
  const auto after = bed.run();
  EXPECT_TRUE(after.cluster == "a" || after.cluster == "b");
  EXPECT_EQ(bed.engine.fastpath_misses(), 2u);
  std::uint64_t hits_before = bed.engine.fastpath_hits();
  for (int i = 0; i < 8; ++i) {
    const auto out = bed.run();
    EXPECT_TRUE(out.cluster == "a" || out.cluster == "b");
  }
  EXPECT_EQ(bed.engine.fastpath_hits(), hits_before + 8);
}

TEST(FastpathEngine, SessionDropKeepsMemo) {
  // A memo entry holds the route rule and cluster pointers, which no
  // session owns: dropping the flow's session leaves its decision cached.
  EngineBed bed;
  bed.add_cluster_with_endpoint("a", 1);
  bed.install_plain_route("a");
  bed.run(/*new_connection=*/true);
  bed.run();
  EXPECT_EQ(bed.engine.fastpath_hits(), 1u);
  bed.engine.close_connection(bed.tuple);  // drops the session
  EXPECT_EQ(bed.run(/*new_connection=*/true).cluster, "a");
  EXPECT_EQ(bed.engine.fastpath_hits(), 2u);
  EXPECT_EQ(bed.engine.fastpath_misses(), 1u);
}

TEST(FastpathEngine, L4FlowCachesAndInvalidatesOnEndpointDiff) {
  EngineBed bed(/*l7=*/false);
  auto& cluster = bed.add_cluster_with_endpoint(
      "service-" + std::to_string(net::id_value(bed.svc)), 1);
  bed.run(/*new_connection=*/true);
  bed.run();
  bed.run();
  EXPECT_EQ(bed.engine.fastpath_hits(), 2u);
  cluster.remove_endpoint(1);
  cluster.add_endpoint(net::Endpoint{net::Ipv4Addr(10, 1, 0, 9), 8080}, 9);
  bed.run();
  EXPECT_EQ(bed.engine.fastpath_hits(), 2u);
  EXPECT_EQ(bed.engine.fastpath_misses(), 2u);
}

// ---- Istio dataplane: pinned flows hit through the client sidecar --------

struct IstioBed {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(1), sim::Rng(167)};
  k8s::Service* frontend = nullptr;
  k8s::Service* backend = nullptr;
  std::unique_ptr<mesh::IstioMesh> istio;

  IstioBed() {
    cluster.add_node(static_cast<net::AzId>(0), 8);
    cluster.add_node(static_cast<net::AzId>(0), 8);
    frontend = &cluster.add_service("frontend");
    backend = &cluster.add_service("backend");
    k8s::AppProfile profile;
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = sim::milliseconds(1);
    profile.sigma = 0.05;
    for (int i = 0; i < 3; ++i) {
      cluster.add_pod(*frontend, profile).set_phase(k8s::PodPhase::kRunning);
      cluster.add_pod(*backend, profile).set_phase(k8s::PodPhase::kRunning);
    }
    istio = std::make_unique<mesh::IstioMesh>(loop, cluster,
                                              mesh::IstioMesh::Config{},
                                              sim::Rng(171));
    istio->install();
  }

  mesh::RequestOptions pinned_request(bool first) {
    mesh::RequestOptions opts;
    opts.client = frontend->endpoints.front();
    opts.dst_service = backend->id;
    opts.path = "/api/items";
    opts.src_port = 7777;
    opts.new_connection = first;
    opts.close_after = false;
    return opts;
  }

  mesh::RequestResult run_one(const mesh::RequestOptions& opts) {
    std::optional<mesh::RequestResult> result;
    istio->send_request(opts, [&](mesh::RequestResult r) { result = r; });
    loop.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(mesh::RequestResult{});
  }
};

TEST(FastpathIstio, PinnedFlowHitsAndTracesMarkerSpan) {
  IstioBed bed;
  EXPECT_EQ(bed.run_one(bed.pinned_request(/*first=*/true)).status, 200);
  auto* engine = bed.istio->sidecar_engine(bed.frontend->endpoints.front()->id());
  ASSERT_NE(engine, nullptr);
  const std::uint64_t hits_before = engine->fastpath_hits();
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(bed.run_one(bed.pinned_request(/*first=*/false)).status, 200);
  }
  EXPECT_EQ(engine->fastpath_hits(), hits_before + 9);
  // The hit is visible as a zero-duration marker span on a traced request.
  mesh::RequestOptions traced = bed.pinned_request(/*first=*/false);
  traced.trace = true;
  const auto result = bed.run_one(traced);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_TRUE(result.trace->has(telemetry::Component::kFastpath));
  EXPECT_EQ(result.trace->duration_of(telemetry::Component::kFastpath), 0);
}

TEST(FastpathIstio, ReinstallAfterScaleOutInvalidates) {
  IstioBed bed;
  bed.run_one(bed.pinned_request(/*first=*/true));
  bed.run_one(bed.pinned_request(/*first=*/false));
  auto* engine = bed.istio->sidecar_engine(bed.frontend->endpoints.front()->id());
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->fastpath_hits(), 0u);
  const std::uint64_t misses_before = engine->fastpath_misses();
  // Scale the destination service and push fresh config (endpoint diff +
  // route install): the cached decision must be re-derived.
  k8s::AppProfile profile;
  profile.fast_fraction = 1.0;
  profile.fast_service_mean = sim::milliseconds(1);
  profile.sigma = 0.05;
  bed.cluster.add_pod(*bed.backend, profile).set_phase(k8s::PodPhase::kRunning);
  bed.istio->reinstall_all();
  EXPECT_EQ(bed.run_one(bed.pinned_request(/*first=*/false)).status, 200);
  EXPECT_EQ(engine->fastpath_misses(), misses_before + 1);
}

// ---- Canal gateway: flow cache over the redirector/ECMP decision ---------

struct CanalBed {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(7), sim::Rng(263)};
  core::GatewayConfig config;
  std::unique_ptr<core::MeshGateway> gateway;
  std::unique_ptr<core::CanalMesh> canal;
  k8s::Service* frontend = nullptr;
  k8s::Service* backend_svc = nullptr;

  explicit CanalBed(sim::Duration idle_timeout = sim::minutes(15)) {
    config.backends_per_service_local = 2;
    config.backends_per_service_remote = 1;
    config.session_idle_timeout = idle_timeout;
    config.mtls = false;  // keep the flow free of key-server scheduling
    gateway = std::make_unique<core::MeshGateway>(loop, config, sim::Rng(269));
    gateway->add_az(4);
    gateway->add_az(4);
    cluster.add_node(static_cast<net::AzId>(0), 8);
    cluster.add_node(static_cast<net::AzId>(1), 8);
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
    canal = std::make_unique<core::CanalMesh>(loop, cluster, *gateway,
                                              core::CanalMesh::Config{},
                                              sim::Rng(277));
    canal->install();
  }

  mesh::RequestOptions pinned_request(bool first) {
    mesh::RequestOptions opts;
    opts.client = frontend->endpoints.front();
    opts.dst_service = backend_svc->id;
    opts.path = "/api";
    opts.src_port = 9999;
    opts.new_connection = first;
    opts.close_after = false;
    return opts;
  }

  mesh::RequestResult run_one(const mesh::RequestOptions& opts) {
    std::optional<mesh::RequestResult> result;
    canal->send_request(opts, [&](mesh::RequestResult r) { result = r; });
    loop.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(mesh::RequestResult{});
  }

  std::uint64_t total_hits() {
    std::uint64_t total = 0;
    for (auto* backend : gateway->all_backends()) {
      total += backend->fastpath_hits();
    }
    return total;
  }

  std::uint64_t total_misses() {
    std::uint64_t total = 0;
    for (auto* backend : gateway->all_backends()) {
      total += backend->fastpath_misses();
    }
    return total;
  }
};

TEST(FastpathGateway, PinnedFlowHitsAndStaysOnSameReplicaDecision) {
  CanalBed bed;
  const auto first = bed.run_one(bed.pinned_request(/*first=*/true));
  EXPECT_EQ(first.status, 200);
  const std::uint64_t hits_before = bed.total_hits();
  for (int i = 0; i < 9; ++i) {
    const auto repeat = bed.run_one(bed.pinned_request(/*first=*/false));
    EXPECT_EQ(repeat.status, 200);
  }
  EXPECT_EQ(bed.total_hits(), hits_before + 9);
}

TEST(FastpathGateway, ResetServiceSessionsInvalidates) {
  CanalBed bed;
  bed.run_one(bed.pinned_request(/*first=*/true));
  bed.run_one(bed.pinned_request(/*first=*/false));
  EXPECT_GT(bed.total_hits(), 0u);
  // Lossy migration resets the service's sessions on its backends: cached
  // flow decisions must be re-derived (the flow may land elsewhere now).
  for (auto* backend : bed.gateway->placement_of(bed.backend_svc->id)) {
    backend->reset_service_sessions(bed.backend_svc->id);
  }
  const std::uint64_t misses_before = bed.total_misses();
  EXPECT_EQ(bed.run_one(bed.pinned_request(/*first=*/true)).status, 200);
  EXPECT_EQ(bed.total_misses(), misses_before + 1);
}

TEST(FastpathGateway, IdleExpiryKeepsFlowDecision) {
  CanalBed bed(/*idle_timeout=*/sim::seconds(1));
  const net::ServiceId service = bed.backend_svc->id;
  core::GatewayBackend& backend =
      *bed.gateway->placement_of(service).front();
  const net::FiveTuple tuple{net::Ipv4Addr(10, 7, 1, 1),
                             mesh::service_vip(service), 9999, 443,
                             net::Protocol::kTcp};
  const lb::BucketTable* table = backend.bucket_table(service);
  ASSERT_NE(table, nullptr);
  const std::vector<net::ReplicaId>& chain =
      table->chain(table->bucket_for(tuple));
  ASSERT_EQ(chain.size(), 1u);  // only single-link decisions are memoized
  const net::ReplicaId head = chain.front();

  http::Request req;
  req.path = "/api";
  const auto send = [&](bool new_connection) {
    std::optional<core::GatewayOutcome> outcome;
    backend.handle_request(tuple, service, new_connection, /*https=*/false,
                           req, [&](core::GatewayOutcome o) { outcome = o; });
    bed.loop.run();
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(core::GatewayOutcome{});
  };
  EXPECT_EQ(send(/*new_connection=*/true).status, 200);
  EXPECT_EQ(send(/*new_connection=*/false).status, 200);
  EXPECT_EQ(backend.fastpath_hits(), 1u);
  ASSERT_EQ(backend.sessions_for(service), 1u);

  // Let the session sampler expire the flow's session as idle.
  backend.start_sampling(sim::seconds(1));
  bed.loop.run_until(bed.loop.now() + sim::seconds(5));
  backend.stop_sampling();
  ASSERT_EQ(backend.sessions_for(service), 0u);
  EXPECT_EQ(backend.sessions_expired(), 1u);

  // Expiry changes no single-link decision, so the memo still serves it.
  const std::uint64_t hits_before = backend.fastpath_hits();
  const core::GatewayOutcome after = send(/*new_connection=*/false);
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(backend.fastpath_hits(), hits_before + 1);
  ASSERT_NE(after.replica, nullptr);
  EXPECT_EQ(after.replica->id(), head);
}

}  // namespace
}  // namespace canal
