// Edge cases and failure-injection tests across modules: saturation
// behaviour, empty/degenerate inputs, bucket-table invariants under random
// operation sequences, gateway behaviour with injected load + live probes,
// and the performance-critical RateMeter/TimeSeries semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "lb/bucket_table.h"
#include "proxy/engine.h"
#include "sim/stats.h"

namespace canal {
namespace {

// ---- RateMeter incremental-sum semantics -----------------------------------

TEST(RateMeterEdge, IncrementalSumMatchesNaive) {
  sim::RateMeter meter(sim::seconds(1));
  sim::Rng rng(2003);
  std::deque<std::pair<sim::TimePoint, double>> shadow;
  sim::TimePoint t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += static_cast<sim::Duration>(rng.uniform(0, 2e6));  // 0-2ms apart
    const double w = rng.uniform(0.5, 3.0);
    meter.record(t, w);
    shadow.emplace_back(t, w);
    while (!shadow.empty() && shadow.front().first <= t - sim::kSecond) {
      shadow.pop_front();
    }
    if (i % 500 == 0) {
      double naive = 0;
      for (const auto& [ts, sw] : shadow) naive += sw;
      EXPECT_NEAR(meter.rate(t), naive / 1.0, 1e-6);
    }
  }
}

TEST(RateMeterEdge, WindowExcludesItsStart) {
  // One event per second over a 5 s window: at t = 10 s the window
  // (5 s, 10 s] holds the events at 6..10 s, so the rate is exactly 1/s.
  // A window closed at both ends would also count the event at 5 s.
  sim::RateMeter meter(sim::seconds(5));
  for (int s = 0; s <= 10; ++s) meter.record(sim::seconds(s));
  EXPECT_EQ(meter.rate(sim::seconds(10)), 1.0);
}

TEST(RateMeterEdge, RateAfterLongIdleIsZero) {
  sim::RateMeter meter(sim::seconds(1));
  meter.record(0, 100.0);
  EXPECT_NEAR(meter.rate(sim::hours(1)), 0.0, 1e-12);
  // And recording again after idle works.
  meter.record(sim::hours(1), 5.0);
  EXPECT_NEAR(meter.rate(sim::hours(1)), 5.0, 1e-9);
}

TEST(TimeSeriesEdge, HistorySamplingIsThrottled) {
  telemetry::ServiceStats stats(sim::seconds(1));
  // 1000 requests within 50 ms must not produce 1000 history samples.
  for (int i = 0; i < 1000; ++i) {
    stats.on_request(i * sim::microseconds(50), false, false);
  }
  EXPECT_LE(stats.rps_history().size(), 2u);
}

// ---- Bucket-table invariants under random operation sequences --------------

class BucketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BucketFuzz, InvariantsHoldUnderRandomOps) {
  sim::Rng rng(GetParam());
  lb::BucketTable table(128, 4);
  std::vector<net::ReplicaId> alive;
  for (std::uint32_t r = 1; r <= 4; ++r) {
    alive.push_back(static_cast<net::ReplicaId>(r));
  }
  table.assign_round_robin(alive);
  std::uint32_t next_replica = 5;

  for (int op = 0; op < 200; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.4 && alive.size() > 1) {
      // Drain a random replica.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1));
      const auto leaving = alive[idx];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(idx));
      table.prepare_offline(leaving, alive);
    } else if (dice < 0.7) {
      // Scale out.
      const auto incoming = static_cast<net::ReplicaId>(next_replica++);
      alive.push_back(incoming);
      table.add_replica(incoming, 128 / alive.size());
    } else if (alive.size() > 1) {
      // Crash + purge.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1));
      const auto dead = alive[idx];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(idx));
      table.prepare_offline(dead, alive);
      table.purge(dead);
    }

    // Invariants: chains bounded, no chain empty while replicas exist, and
    // every SYN lands on an alive head.
    for (std::size_t b = 0; b < table.bucket_count(); ++b) {
      const auto& chain = table.chain(b);
      EXPECT_LE(chain.size(), 4u);
      ASSERT_FALSE(chain.empty()) << "bucket " << b << " empty at op " << op;
    }
    const lb::Redirector redirector(table);
    for (std::uint16_t p = 0; p < 16; ++p) {
      const net::FiveTuple tuple{net::Ipv4Addr(10, 0, 0, 1),
                                 net::Ipv4Addr(10, 0, 0, 2),
                                 static_cast<std::uint16_t>(p * 31 + op), 443,
                                 net::Protocol::kTcp};
      const auto decision = redirector.resolve(
          tuple, true,
          [](net::ReplicaId, const net::FiveTuple&) { return false; });
      ASSERT_TRUE(decision.has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BucketFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---- Gateway under mixed injected load + live probes ------------------------

struct GatewayLoadWorld {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(3), sim::Rng(2111)};
  core::MeshGateway gateway{loop, core::GatewayConfig{}, sim::Rng(2113)};
  std::unique_ptr<core::CanalMesh> canal;
  k8s::Service* api = nullptr;
  k8s::Pod* client = nullptr;

  GatewayLoadWorld() {
    gateway.add_az(3);
    cluster.add_node(static_cast<net::AzId>(0), 16);
    api = &cluster.add_service("api");
    k8s::AppProfile profile;
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = sim::milliseconds(1);
    profile.sigma = 0.05;
    for (int i = 0; i < 2; ++i) {
      cluster.add_pod(*api, profile).set_phase(k8s::PodPhase::kRunning);
    }
    k8s::Service& web = cluster.add_service("web");
    client = &cluster.add_pod(web, profile);
    client->set_phase(k8s::PodPhase::kRunning);
    canal = std::make_unique<core::CanalMesh>(
        loop, cluster, gateway, core::CanalMesh::Config{}, sim::Rng(2129));
    canal->install();
  }
};

TEST(GatewayLoad, InjectedLoadDelaysButDoesNotBreakProbes) {
  GatewayLoadWorld world;
  core::GatewayBackend* backend =
      world.gateway.placement_of(world.api->id).front();

  // Unloaded probe latency.
  sim::Duration unloaded = 0;
  {
    mesh::RequestOptions opts;
    opts.client = world.client;
    opts.dst_service = world.api->id;
    opts.new_connection = false;
    world.canal->send_request(
        opts, [&](mesh::RequestResult r) { unloaded = r.latency; });
    world.loop.run();
  }
  // ~70% utilization of the serving backend; probes share its cores.
  sim::PeriodicTimer load(world.loop, sim::milliseconds(100), [&] {
    backend->inject_load(world.api->id, 30000.0, sim::milliseconds(100));
  });
  load.start();
  sim::Histogram loaded_us;
  int ok = 0, total = 0;
  sim::PeriodicTimer probes(world.loop, sim::milliseconds(200), [&] {
    mesh::RequestOptions opts;
    opts.client = world.client;
    opts.dst_service = world.api->id;
    opts.new_connection = false;
    world.canal->send_request(opts, [&](mesh::RequestResult r) {
      ++total;
      if (r.ok()) ++ok;
      loaded_us.record(sim::to_microseconds(r.latency));
    });
  });
  probes.start();
  world.loop.run_until(sim::seconds(10));
  load.stop();
  probes.stop();
  world.loop.run_until(world.loop.now() + sim::seconds(2));

  EXPECT_EQ(ok, total);  // no failures below saturation
  EXPECT_GT(loaded_us.mean(), sim::to_microseconds(unloaded));
}

TEST(GatewayLoad, SaturatedBackendStillAnswersAfterLoadStops) {
  GatewayLoadWorld world;
  core::GatewayBackend* backend =
      world.gateway.placement_of(world.api->id).front();
  // Grossly oversaturate for one second.
  backend->inject_load(world.api->id, 500'000.0, sim::seconds(1));
  world.loop.run_until(world.loop.now() + sim::minutes(2));
  mesh::RequestOptions opts;
  opts.client = world.client;
  opts.dst_service = world.api->id;
  int status = 0;
  world.canal->send_request(opts,
                            [&](mesh::RequestResult r) { status = r.status; });
  world.loop.run();
  EXPECT_EQ(status, 200);
}

TEST(GatewayLoad, ThrottleMeterCountsOnlyAdmitted) {
  GatewayLoadWorld world;
  core::GatewayBackend* backend =
      world.gateway.placement_of(world.api->id).front();
  backend->set_throttle(world.api->id, 5.0);
  int ok = 0, throttled = 0;
  for (int i = 0; i < 50; ++i) {
    mesh::RequestOptions opts;
    opts.client = world.client;
    opts.dst_service = world.api->id;
    world.canal->send_request(opts, [&](mesh::RequestResult r) {
      if (r.status == 429) ++throttled;
      else if (r.ok()) ++ok;
    });
  }
  world.loop.run();
  // Both backends of the placement serve; each admits ~5/s in the burst.
  EXPECT_GT(throttled, 30);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + throttled, 50);
  EXPECT_GT(backend->throttled_requests(), 0u);
}

// ---- Engine saturation properties -------------------------------------------

class EngineSaturation : public ::testing::TestWithParam<double> {};

TEST_P(EngineSaturation, LatencyMonotoneInLoad) {
  // P99 latency through one engine must be monotone non-decreasing in the
  // offered load (sanity of the queueing substrate).
  const double utilization = GetParam();
  sim::EventLoop loop;
  sim::CpuSet cpu(loop, 2);
  proxy::ProxyEngine::Config config;
  config.l7 = true;
  proxy::ProxyEngine engine(loop, cpu, config, sim::Rng(2203));
  http::RouteTable table;
  http::RouteRule rule;
  rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  rule.match.path = "/";
  rule.action.clusters = {{"pool", 1}};
  table.add_rule(rule);
  engine.set_route_table(static_cast<net::ServiceId>(1), std::move(table));
  engine.clusters().add_cluster("pool").add_endpoint(
      {net::Ipv4Addr(1, 1, 1, 1), 80}, 1);

  // Per-request cost ~30us on 2 cores => capacity ~66k rps.
  const double rps = utilization * 2.0 / 30e-6;
  sim::Histogram latency;
  sim::Rng rng(2207);
  sim::TimePoint t = 0;
  std::vector<std::unique_ptr<http::Request>> requests;
  for (int i = 0; i < 2000; ++i) {
    t += static_cast<sim::Duration>(rng.exponential(1.0 / rps) * 1e9);
    loop.schedule_at(t, [&, i] {
      auto req = std::make_unique<http::Request>();
      auto* raw = req.get();
      requests.push_back(std::move(req));
      const sim::TimePoint sent = loop.now();
      engine.handle_request(
          net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1),
                         net::Ipv4Addr(10, 0, 0, 2),
                         static_cast<std::uint16_t>(i), 80,
                         net::Protocol::kTcp},
          static_cast<net::ServiceId>(1), false, *raw,
          [&, sent](proxy::ProxyEngine::RequestOutcome) {
            latency.record(sim::to_microseconds(loop.now() - sent));
          });
    });
  }
  loop.run();
  // Stash the result in a static map keyed by utilization and check
  // monotonicity against lower utilizations already measured.
  static std::map<double, double> p99_by_util;
  p99_by_util[utilization] = latency.percentile(99);
  double previous = 0.0;
  for (const auto& [util, p99] : p99_by_util) {
    EXPECT_GE(p99 + 1.0, previous) << "p99 decreased at util " << util;
    previous = p99;
  }
}

INSTANTIATE_TEST_SUITE_P(Utilizations, EngineSaturation,
                         ::testing::Values(0.2, 0.5, 0.8, 0.95));

// ---- Degenerate inputs -------------------------------------------------------

TEST(Degenerate, GatewayWithNoBackends) {
  sim::EventLoop loop;
  core::MeshGateway gateway(loop, core::GatewayConfig{}, sim::Rng(2221));
  gateway.add_az(0);  // an AZ with zero backends
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(4), sim::Rng(2223));
  cluster.add_node(static_cast<net::AzId>(0), 4);
  k8s::Service& service = cluster.add_service("s");
  cluster.add_pod(service, k8s::AppProfile{})
      .set_phase(k8s::PodPhase::kRunning);
  // install_service cannot place anywhere.
  EXPECT_FALSE(gateway.install_service(service, static_cast<net::AzId>(0)));
  EXPECT_EQ(gateway.resolve(service.id, static_cast<net::AzId>(0)), nullptr);
}

TEST(Degenerate, EmptyServiceHasNoEndpoints) {
  GatewayLoadWorld world;
  k8s::Service& empty = world.cluster.add_service("empty");
  world.canal->install();
  mesh::RequestOptions opts;
  opts.client = world.client;
  opts.dst_service = empty.id;
  int status = 0;
  world.canal->send_request(opts,
                            [&](mesh::RequestResult r) { status = r.status; });
  world.loop.run();
  EXPECT_EQ(status, 503);
}

TEST(Degenerate, RequestToTerminatedPodsOnly) {
  GatewayLoadWorld world;
  for (k8s::Pod* pod : world.api->endpoints) {
    pod->set_phase(k8s::PodPhase::kTerminated);
  }
  mesh::RequestOptions opts;
  opts.client = world.client;
  opts.dst_service = world.api->id;
  int status = 0;
  world.canal->send_request(opts,
                            [&](mesh::RequestResult r) { status = r.status; });
  world.loop.run();
  EXPECT_EQ(status, 503);
}

TEST(Degenerate, ZeroLengthBodyAndHugePath) {
  GatewayLoadWorld world;
  mesh::RequestOptions opts;
  opts.client = world.client;
  opts.dst_service = world.api->id;
  opts.request_bytes = 0;
  opts.path = "/" + std::string(4000, 'x');
  int status = 0;
  world.canal->send_request(opts,
                            [&](mesh::RequestResult r) { status = r.status; });
  world.loop.run();
  EXPECT_EQ(status, 200);
}

}  // namespace
}  // namespace canal
