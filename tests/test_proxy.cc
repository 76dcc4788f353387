// Unit tests for the proxy engine: cost model, Nagle aggregation, session
// table, upstream pools, and the L4/L7 request path.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "http/route.h"
#include "proxy/cost_model.h"
#include "proxy/engine.h"
#include "proxy/nagle.h"
#include "proxy/session_table.h"
#include "proxy/upstream.h"
#include "sim/rng.h"
#include "tests/testutil.h"

namespace canal::proxy {
namespace {

net::FiveTuple tuple_of(std::uint16_t sport) {
  return net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                        sport, 80, net::Protocol::kTcp};
}

constexpr auto kService = static_cast<net::ServiceId>(42);

TEST(CostModel, RedirectionOrdering) {
  const ProxyCostModel costs;
  const auto none = costs.redirect_cost(RedirectMode::kNone, 1000, 1);
  const auto ebpf = costs.redirect_cost(RedirectMode::kEbpf, 1000, 1);
  const auto iptables = costs.redirect_cost(RedirectMode::kIptables, 1000, 1);
  EXPECT_EQ(none, 0);
  EXPECT_GT(ebpf, none);
  EXPECT_GT(iptables, ebpf);
}

TEST(CostModel, SegmentsMultiplyPerPacketCosts) {
  const ProxyCostModel costs;
  const auto one = costs.redirect_cost(RedirectMode::kEbpf, 1000, 1);
  const auto ten = costs.redirect_cost(RedirectMode::kEbpf, 1000, 10);
  EXPECT_GT(ten, 5 * one);
}

TEST(CostModel, MemcpyScalesWithBytes) {
  const ProxyCostModel costs;
  EXPECT_EQ(costs.memcpy_cost(2048), 2 * costs.memcpy_cost(1024));
}

TEST(Nagle, CoalescesSmallWrites) {
  sim::EventLoop loop;
  std::uint64_t flushed_bytes = 0;
  std::uint32_t flushes = 0;
  NagleBuffer nagle(loop, 1448, sim::milliseconds(1),
                    [&](std::uint64_t bytes, std::uint32_t) {
                      flushed_bytes += bytes;
                      ++flushes;
                    });
  // 100 writes of 16 bytes: without Nagle that would be 100 segments.
  for (int i = 0; i < 100; ++i) nagle.write(16);
  loop.run();
  EXPECT_EQ(flushed_bytes, 1600u);
  EXPECT_LE(flushes, 3u);  // one full MSS + timeout flush of the remainder
  EXPECT_EQ(nagle.writes_accepted(), 100u);
  EXPECT_EQ(nagle.buffered_bytes(), 0u);
}

TEST(Nagle, FullMssEmitsImmediately) {
  sim::EventLoop loop;
  std::vector<std::uint64_t> segments;
  NagleBuffer nagle(loop, 1000, sim::milliseconds(1),
                    [&](std::uint64_t bytes, std::uint32_t) {
                      segments.push_back(bytes);
                    });
  nagle.write(2500);
  EXPECT_EQ(segments.size(), 2u);  // two full MSS right away
  EXPECT_EQ(segments[0], 1000u);
  EXPECT_EQ(segments[1], 1000u);
  loop.run();  // timeout flushes the remaining 500
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[2], 500u);
}

TEST(Nagle, TimeoutFlushesPartial) {
  sim::EventLoop loop;
  sim::TimePoint flushed_at = -1;
  NagleBuffer nagle(loop, 1448, sim::milliseconds(5),
                    [&](std::uint64_t, std::uint32_t) {
                      flushed_at = loop.now();
                    });
  nagle.write(100);
  loop.run();
  EXPECT_EQ(flushed_at, sim::milliseconds(5));
}

TEST(Nagle, ExplicitFlush) {
  sim::EventLoop loop;
  int flushes = 0;
  NagleBuffer nagle(loop, 1448, sim::milliseconds(5),
                    [&](std::uint64_t, std::uint32_t) { ++flushes; });
  nagle.write(100);
  nagle.flush();
  EXPECT_EQ(flushes, 1);
  nagle.flush();  // empty flush is a no-op
  EXPECT_EQ(flushes, 1);
  loop.run();
  EXPECT_EQ(flushes, 1);  // timer cancelled by the explicit flush
}

TEST(SessionTable, InsertTouchRemove) {
  SessionTable table(10);
  EXPECT_TRUE(table.insert(tuple_of(1), kService, 100));
  EXPECT_EQ(table.size(), 1u);
  Session* s = table.touch(tuple_of(1), 200);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->last_active, 200);
  EXPECT_TRUE(table.remove(tuple_of(1)));
  EXPECT_FALSE(table.remove(tuple_of(1)));
}

TEST(SessionTable, CapacityRejects) {
  SessionTable table(2);
  EXPECT_TRUE(table.insert(tuple_of(1), kService, 0));
  EXPECT_TRUE(table.insert(tuple_of(2), kService, 0));
  EXPECT_FALSE(table.insert(tuple_of(3), kService, 0));
  EXPECT_EQ(table.rejected(), 1u);
  EXPECT_DOUBLE_EQ(table.occupancy(), 1.0);
}

TEST(SessionTable, IdleExpiry) {
  SessionTable table(10);
  table.insert(tuple_of(1), kService, 0);
  table.insert(tuple_of(2), kService, sim::seconds(50));
  const std::size_t dropped =
      table.expire_idle(sim::seconds(60), sim::seconds(30));
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(table.find(tuple_of(1)), nullptr);
  EXPECT_NE(table.find(tuple_of(2)), nullptr);
}

TEST(SessionTable, PerServiceCountAndRemoval) {
  SessionTable table(10);
  const auto other = static_cast<net::ServiceId>(7);
  table.insert(tuple_of(1), kService, 0);
  table.insert(tuple_of(2), kService, 0);
  table.insert(tuple_of(3), other, 0);
  EXPECT_EQ(table.count_for(kService), 2u);
  EXPECT_EQ(table.remove_for(kService), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.count_for(other), 1u);
}

TEST(Upstream, RoundRobinSkipsUnhealthy) {
  UpstreamCluster cluster("c", LbPolicy::kRoundRobin);
  cluster.add_endpoint({net::Ipv4Addr(1, 1, 1, 1), 80}, 1);
  cluster.add_endpoint({net::Ipv4Addr(2, 2, 2, 2), 80}, 2);
  cluster.add_endpoint({net::Ipv4Addr(3, 3, 3, 3), 80}, 3);
  cluster.find_endpoint(2)->healthy = false;
  sim::Rng rng(139);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 6; ++i) {
    seen.insert(cluster.pick(rng)->key);
  }
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 3}));
  EXPECT_EQ(cluster.healthy_count(), 2u);
}

TEST(Upstream, NoHealthyReturnsNull) {
  UpstreamCluster cluster("c", LbPolicy::kRoundRobin);
  cluster.add_endpoint({net::Ipv4Addr(1, 1, 1, 1), 80}, 1);
  cluster.find_endpoint(1)->healthy = false;
  sim::Rng rng(141);
  EXPECT_EQ(cluster.pick(rng), nullptr);
}

TEST(Upstream, LeastRequestPrefersIdle) {
  UpstreamCluster cluster("c", LbPolicy::kLeastRequest);
  cluster.add_endpoint({net::Ipv4Addr(1, 1, 1, 1), 80}, 1);
  cluster.add_endpoint({net::Ipv4Addr(2, 2, 2, 2), 80}, 2);
  // Note: add_endpoint references are invalidated by further adds; look
  // endpoints up after the pool is final.
  cluster.find_endpoint(1)->active_requests = 10;
  sim::Rng rng(149);
  EXPECT_EQ(cluster.pick(rng), cluster.find_endpoint(2));
}

TEST(Upstream, WeightedRandomRespectsWeights) {
  UpstreamCluster cluster("c", LbPolicy::kRandom);
  cluster.add_endpoint({net::Ipv4Addr(1, 1, 1, 1), 80}, 1, 90);
  cluster.add_endpoint({net::Ipv4Addr(2, 2, 2, 2), 80}, 2, 10);
  sim::Rng rng(151);
  int minority = 0;
  for (int i = 0; i < 10000; ++i) {
    if (cluster.pick(rng)->key == 2) ++minority;
  }
  EXPECT_NEAR(minority / 10000.0, 0.10, 0.02);
}

TEST(Upstream, RemoveEndpoint) {
  UpstreamCluster cluster("c", LbPolicy::kRoundRobin);
  cluster.add_endpoint({net::Ipv4Addr(1, 1, 1, 1), 80}, 1);
  EXPECT_TRUE(cluster.remove_endpoint(1));
  EXPECT_FALSE(cluster.remove_endpoint(1));
  EXPECT_TRUE(cluster.endpoints().empty());
}

TEST(ClusterManager, AddFindRemove) {
  ClusterManager manager;
  manager.add_cluster("a");
  EXPECT_NE(manager.find("a"), nullptr);
  EXPECT_EQ(manager.find("b"), nullptr);
  manager.remove_cluster("a");
  EXPECT_EQ(manager.find("a"), nullptr);
}

// ---- ProxyEngine ---------------------------------------------------------

struct EngineFixture {
  sim::EventLoop loop;
  sim::CpuSet cpu{loop, 2};

  std::unique_ptr<ProxyEngine> make_engine(bool l7 = true, bool mtls = false,
                                           std::size_t sessions = 1000) {
    ProxyEngine::Config config;
    config.name = "test";
    config.l7 = l7;
    config.mtls = mtls;
    config.session_capacity = sessions;
    auto engine =
        std::make_unique<ProxyEngine>(loop, cpu, config, sim::Rng(157));
    return engine;
  }

  static void install_default_route(ProxyEngine& engine) {
    http::RouteTable table;
    http::RouteRule rule;
    rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
    rule.match.path = "/";
    rule.action.clusters = {{"pool", 1}};
    table.add_rule(rule);
    engine.set_route_table(kService, std::move(table));
    auto& pool = engine.clusters().add_cluster("pool");
    pool.add_endpoint({net::Ipv4Addr(10, 0, 1, 1), 8080}, 11);
    pool.add_endpoint({net::Ipv4Addr(10, 0, 1, 2), 8080}, 12);
  }
};

TEST(Engine, RoutesRequestToEndpoint) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  EngineFixture::install_default_route(*engine);
  http::Request req;
  req.path = "/api";
  std::optional<ProxyEngine::RequestOutcome> outcome;
  engine->handle_request(tuple_of(1), kService, true, req,
                         [&](ProxyEngine::RequestOutcome o) { outcome = o; });
  fx.loop.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok);
  EXPECT_EQ(outcome->cluster, "pool");
  ASSERT_NE(outcome->endpoint, nullptr);
  EXPECT_EQ(outcome->endpoint->active_requests, 1u);
  EXPECT_EQ(engine->requests_total(), 1u);
  EXPECT_EQ(engine->sessions().size(), 1u);
}

TEST(Engine, ChargesCpuTime) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  EngineFixture::install_default_route(*engine);
  http::Request req;
  engine->handle_request(tuple_of(1), kService, true, req,
                         [](ProxyEngine::RequestOutcome) {});
  fx.loop.run();
  EXPECT_GT(fx.cpu.total_busy_core_seconds(), 0.0);
  EXPECT_GE(fx.loop.now(), engine->config().costs.l7_process);
}

TEST(Engine, UnknownServiceIs404) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  http::Request req;
  std::optional<ProxyEngine::RequestOutcome> outcome;
  engine->handle_request(tuple_of(1), static_cast<net::ServiceId>(99), true,
                         req,
                         [&](ProxyEngine::RequestOutcome o) { outcome = o; });
  fx.loop.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->status, 404);
  EXPECT_EQ(engine->requests_failed(), 1u);
}

TEST(Engine, MissingClusterIs502) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  http::RouteTable table;
  http::RouteRule rule;
  rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  rule.match.path = "/";
  rule.action.clusters = {{"ghost", 1}};
  table.add_rule(rule);
  engine->set_route_table(kService, std::move(table));
  http::Request req;
  std::optional<ProxyEngine::RequestOutcome> outcome;
  engine->handle_request(tuple_of(1), kService, true, req,
                         [&](ProxyEngine::RequestOutcome o) { outcome = o; });
  fx.loop.run();
  EXPECT_EQ(outcome->status, 502);
}

TEST(Engine, SessionExhaustionIs503) {
  EngineFixture fx;
  auto engine = fx.make_engine(true, false, /*sessions=*/1);
  EngineFixture::install_default_route(*engine);
  http::Request req1, req2;
  std::optional<ProxyEngine::RequestOutcome> second;
  engine->handle_request(tuple_of(1), kService, true, req1,
                         [](ProxyEngine::RequestOutcome) {});
  engine->handle_request(tuple_of(2), kService, true, req2,
                         [&](ProxyEngine::RequestOutcome o) { second = o; });
  fx.loop.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 503);
}

TEST(Engine, DirectResponseFromRouteTable) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  http::RouteTable table;
  http::RouteRule deny;
  deny.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  deny.match.path = "/forbidden";
  deny.action.direct_response_status = 403;
  table.add_rule(deny);
  engine->set_route_table(kService, std::move(table));
  http::Request req;
  req.path = "/forbidden/x";
  std::optional<ProxyEngine::RequestOutcome> outcome;
  engine->handle_request(tuple_of(1), kService, true, req,
                         [&](ProxyEngine::RequestOutcome o) { outcome = o; });
  fx.loop.run();
  EXPECT_EQ(outcome->status, 403);
  EXPECT_FALSE(outcome->ok);
}

TEST(Engine, HandshakeExecutorOncePerNewConnection) {
  EngineFixture fx;
  auto engine = fx.make_engine(true, /*mtls=*/true);
  EngineFixture::install_default_route(*engine);
  int handshakes = 0;
  engine->set_handshake_executor([&](sim::Callback done) {
    ++handshakes;
    fx.loop.post(sim::milliseconds(1), std::move(done));
  });
  http::Request req1, req2, req3;
  engine->handle_request(tuple_of(1), kService, true, req1,
                         [](ProxyEngine::RequestOutcome) {});
  fx.loop.run();
  engine->handle_request(tuple_of(1), kService, false, req2,
                         [](ProxyEngine::RequestOutcome) {});
  fx.loop.run();
  engine->handle_request(tuple_of(2), kService, true, req3,
                         [](ProxyEngine::RequestOutcome) {});
  fx.loop.run();
  EXPECT_EQ(handshakes, 2);
  EXPECT_EQ(engine->handshakes(), 2u);
}

TEST(Engine, L4ModeUsesServiceCluster) {
  EngineFixture fx;
  auto engine = fx.make_engine(/*l7=*/false);
  auto& pool = engine->clusters().add_cluster(
      "service-" + std::to_string(net::id_value(kService)));
  pool.add_endpoint({net::Ipv4Addr(9, 9, 9, 9), 15008}, 77);
  http::Request req;
  std::optional<ProxyEngine::RequestOutcome> outcome;
  engine->handle_request(tuple_of(1), kService, true, req,
                         [&](ProxyEngine::RequestOutcome o) { outcome = o; });
  fx.loop.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok);
  EXPECT_EQ(outcome->endpoint->key, 77u);
}

TEST(Engine, L4CheaperThanL7) {
  EngineFixture fx;
  auto l7 = fx.make_engine(true);
  EngineFixture::install_default_route(*l7);

  sim::EventLoop loop2;
  sim::CpuSet cpu2(loop2, 2);
  ProxyEngine::Config config;
  config.l7 = false;
  ProxyEngine l4(loop2, cpu2, config, sim::Rng(163));
  auto& pool = l4.clusters().add_cluster(
      "service-" + std::to_string(net::id_value(kService)));
  pool.add_endpoint({net::Ipv4Addr(9, 9, 9, 9), 80}, 1);

  http::Request req1, req2;
  l7->handle_request(tuple_of(1), kService, true, req1,
                     [](ProxyEngine::RequestOutcome) {});
  l4.handle_request(tuple_of(1), kService, true, req2,
                    [](ProxyEngine::RequestOutcome) {});
  fx.loop.run();
  loop2.run();
  EXPECT_GT(fx.cpu.total_busy_core_seconds(), cpu2.total_busy_core_seconds());
}

TEST(Engine, InboundProcessing) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  bool ok = false;
  int status = 0;
  engine->handle_inbound(tuple_of(5), kService, true, 2000,
                         [&](bool o, int s) {
                           ok = o;
                           status = s;
                         });
  fx.loop.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(engine->sessions().size(), 1u);
}

TEST(Engine, ResponseChargesCpu) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  bool done = false;
  engine->handle_response(tuple_of(1), 4096, [&] { done = true; });
  fx.loop.run();
  EXPECT_TRUE(done);
  EXPECT_GT(fx.cpu.total_busy_core_seconds(), 0.0);
}

TEST(Engine, CloseConnectionDropsSession) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  EngineFixture::install_default_route(*engine);
  http::Request req;
  engine->handle_request(tuple_of(1), kService, true, req,
                         [](ProxyEngine::RequestOutcome) {});
  fx.loop.run();
  EXPECT_EQ(engine->sessions().size(), 1u);
  engine->close_connection(tuple_of(1));
  EXPECT_EQ(engine->sessions().size(), 0u);
}

TEST(Engine, ObserverSeesRequests) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  EngineFixture::install_default_route(*engine);
  int observed = 0;
  engine->set_request_observer([&](net::ServiceId service,
                                   const net::FiveTuple&, std::uint64_t,
                                   bool new_conn) {
    ++observed;
    EXPECT_EQ(service, kService);
    EXPECT_TRUE(new_conn);
  });
  http::Request req;
  engine->handle_request(tuple_of(1), kService, true, req,
                         [](ProxyEngine::RequestOutcome) {});
  fx.loop.run();
  EXPECT_EQ(observed, 1);
}

TEST(Engine, ConfigBytesGrowWithRoutes) {
  EngineFixture fx;
  auto engine = fx.make_engine();
  const std::size_t before = engine->config_bytes();
  EngineFixture::install_default_route(*engine);
  EXPECT_GT(engine->config_bytes(), before);
}

// Canary split through the full engine path.
TEST(Engine, CanaryWeightedSplit) {
  EngineFixture fx;
  auto engine = fx.make_engine(true, false, /*sessions=*/5000);
  http::RouteTable table;
  http::RouteRule rule;
  rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  rule.match.path = "/";
  rule.action.clusters = {{"stable", 80}, {"canary", 20}};
  table.add_rule(rule);
  engine->set_route_table(kService, std::move(table));
  engine->clusters()
      .add_cluster("stable")
      .add_endpoint({net::Ipv4Addr(1, 0, 0, 1), 80}, 1);
  engine->clusters()
      .add_cluster("canary")
      .add_endpoint({net::Ipv4Addr(1, 0, 0, 2), 80}, 2);

  int canary = 0;
  constexpr int kN = 2000;
  // The engine holds each request by reference until its callback fires,
  // so the requests must outlive loop.run() at stable addresses.
  std::deque<http::Request> requests;
  for (int i = 0; i < kN; ++i) {
    http::Request& req = requests.emplace_back();
    engine->handle_request(tuple_of(static_cast<std::uint16_t>(i)), kService,
                           true, req, [&](ProxyEngine::RequestOutcome o) {
                             if (o.cluster == "canary") ++canary;
                           });
  }
  fx.loop.run();
  EXPECT_NEAR(canary / static_cast<double>(kN), 0.20, 0.04);
}


// ---- Fastpath memo growth ------------------------------------------------

net::FiveTuple client_flow(std::uint32_t i) {
  return net::FiveTuple{net::Ipv4Addr(0x0A010000u + i),
                        net::Ipv4Addr(10, 0, 0, 2), 5555, 80,
                        net::Protocol::kTcp};
}

http::RouteTable default_route_table() {
  http::RouteTable table;
  http::RouteRule rule;
  rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  rule.match.path = "/";
  rule.action.clusters = {{"pool", 1}};
  table.add_rule(rule);
  return table;
}

// Sends one request on `tuple`; returns whether it was a fastpath hit.
bool fastpath_request(EngineFixture& fx, ProxyEngine& engine,
                      const net::FiveTuple& tuple, bool new_connection) {
  const std::uint64_t hits = engine.fastpath_hits();
  http::Request req;
  req.path = "/api";
  bool ok = false;
  engine.handle_request(tuple, kService, new_connection, req,
                        [&](ProxyEngine::RequestOutcome o) { ok = o.ok; });
  fx.loop.run();
  EXPECT_TRUE(ok);
  return engine.fastpath_hits() != hits;
}

// Drives an engine through `flows` seeded flows, changing the engine every
// couple of requests per flow in rotation — a route install and an
// endpoint change, which bump the fastpath epoch, and a session drop,
// which does not — and compares every request's hit or miss with the
// 4096-slot reference. Returns the memo's final size.
std::size_t check_fastpath_against_reference(bool l7, std::uint32_t flows,
                                             std::uint64_t seed) {
  EngineFixture fx;
  auto engine = fx.make_engine(l7, /*mtls=*/false, /*sessions=*/1'000'000);
  UpstreamCluster* pool = nullptr;
  if (l7) {
    EngineFixture::install_default_route(*engine);
    pool = engine->clusters().find("pool");
  } else {
    pool = &engine->clusters().add_cluster(
        "service-" + std::to_string(net::id_value(kService)));
    pool->add_endpoint({net::Ipv4Addr(10, 0, 1, 1), 8080}, 11);
  }
  testutil::FullSizeFlowTable<net::FiveTuple> reference;
  std::uint64_t epoch = 0;
  sim::Rng rng(seed);
  std::vector<bool> open(flows, false);
  const std::size_t period = 2 * flows + 50;
  const std::size_t steps = 8 * period;
  std::uint64_t endpoint_key = 100;
  std::size_t hits = 0;
  for (std::size_t step = 1; step <= steps; ++step) {
    if (step % period == 0) {
      switch ((step / period) % 3) {
        case 0:
          engine->set_route_table(kService, default_route_table());
          ++epoch;
          break;
        case 1:
          pool->add_endpoint({net::Ipv4Addr(10, 0, 2, 1), 8080},
                             ++endpoint_key);
          ++epoch;
          break;
        default: {
          const auto i = static_cast<std::uint32_t>(
              rng.uniform_int(0, flows - 1));
          engine->close_connection(client_flow(i));
          open[i] = false;
          break;
        }
      }
      continue;
    }
    const auto i =
        static_cast<std::uint32_t>(rng.uniform_int(0, flows - 1));
    const net::FiveTuple tuple = client_flow(i);
    const bool hit = fastpath_request(fx, *engine, tuple, !open[i]);
    open[i] = true;
    const bool want = reference.find(tuple, epoch) != nullptr;
    if (!want) reference.insert(tuple, epoch);
    if (hit != want) {
      ADD_FAILURE() << (l7 ? "L7" : "L4") << " flows " << flows << " step "
                    << step << ": engine " << (hit ? "hit" : "missed");
      return engine->fastpath_slots();
    }
    if (hit) ++hits;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(engine->fastpath_hits() + engine->fastpath_misses(),
            engine->requests_total());
  return engine->fastpath_slots();
}

TEST(EngineFastpathMemo, HitsAndMissesMatchFullSizeTable) {
  for (const bool l7 : {true, false}) {
    for (const std::uint32_t flows : {3u, 40u, 700u, 5000u}) {
      const std::size_t slots =
          check_fastpath_against_reference(l7, flows, 1000 + flows);
      EXPECT_GE(slots, 16u);
      EXPECT_LE(slots, 4096u);
      // 5000 live flows cannot fit without collisions below the cap.
      if (flows == 5000) {
        EXPECT_EQ(slots, 4096u);
      }
    }
  }
}

TEST(EngineFastpathMemo, PinnedFlowsKeepTheMemoSmall) {
  // Eight pinned flows on source ports 1..8: two of them share a slot at
  // 32 slots, none at 64. Route installs between rounds leave every entry
  // stale; re-memoizing a flow over its own stale entry must not grow.
  EngineFixture fx;
  auto engine = fx.make_engine();
  EngineFixture::install_default_route(*engine);
  EXPECT_EQ(engine->fastpath_slots(), 0u);  // nothing memoized yet
  for (int round = 0; round < 50; ++round) {
    if (round % 10 == 9) {
      engine->set_route_table(kService, default_route_table());
    }
    for (std::uint16_t port = 1; port <= 8; ++port) {
      fastpath_request(fx, *engine, tuple_of(port), round == 0);
    }
  }
  // Round 0 and the five rounds that open with a route install miss.
  EXPECT_EQ(engine->fastpath_hits(), 8u * (50u - 6u));
  EXPECT_LE(engine->fastpath_slots(), 64u);
}

TEST(EngineFastpathMemo, SessionDropKeepsRouteDecision) {
  // Two engines built alike see the same requests. After a session drop
  // (close, then idle expiry) the memoized engine must serve the flow's
  // next request from its memo; the reference reinstalls its routes at the
  // same point, so it misses. Both must agree on every outcome: a memo
  // entry holds only the rule and cluster pointers, never session state.
  const auto weighted_table = [] {
    http::RouteTable table;
    http::RouteRule rule;
    rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
    rule.match.path = "/";
    rule.action.clusters = {{"stable", 3}, {"canary", 1}};
    table.add_rule(rule);
    return table;
  };
  EngineFixture memo_fx;
  EngineFixture ref_fx;
  auto memo = memo_fx.make_engine();
  auto ref = ref_fx.make_engine();
  for (ProxyEngine* engine : {memo.get(), ref.get()}) {
    engine->set_route_table(kService, weighted_table());
    auto& stable = engine->clusters().add_cluster("stable");
    stable.add_endpoint({net::Ipv4Addr(10, 0, 1, 1), 8080}, 11);
    stable.add_endpoint({net::Ipv4Addr(10, 0, 1, 2), 8080}, 12);
    engine->clusters()
        .add_cluster("canary")
        .add_endpoint({net::Ipv4Addr(10, 0, 2, 1), 8080}, 21);
  }
  const net::FiveTuple flow = tuple_of(7);
  struct Seen {
    bool ok = false;
    int status = 0;
    std::string cluster;
    std::uint64_t endpoint = 0;
    bool operator==(const Seen&) const = default;
  };
  const auto send = [&](EngineFixture& fx, ProxyEngine& engine,
                        bool new_connection) {
    http::Request req;
    req.path = "/api";
    Seen seen;
    engine.handle_request(flow, kService, new_connection, req,
                          [&](ProxyEngine::RequestOutcome o) {
                            seen = {o.ok, o.status, std::string(o.cluster),
                                    o.endpoint != nullptr ? o.endpoint->key
                                                          : 0};
                          });
    fx.loop.run();
    return seen;
  };
  // Sends `n` requests on the flow to both engines; the first opens a
  // connection when `reopen`. Returns the memoized engine's hits.
  const auto round = [&](int n, bool reopen) {
    const std::uint64_t hits = memo->fastpath_hits();
    for (int i = 0; i < n; ++i) {
      const bool fresh = reopen && i == 0;
      const Seen got = send(memo_fx, *memo, fresh);
      const Seen want = send(ref_fx, *ref, fresh);
      EXPECT_TRUE(got.ok);
      EXPECT_EQ(got, want) << "request " << i;
    }
    return memo->fastpath_hits() - hits;
  };
  EXPECT_EQ(round(8, /*reopen=*/true), 7u);  // the first request misses

  // A close drops the flow's session, not its route decision.
  memo->close_connection(flow);
  ref->close_connection(flow);
  ASSERT_EQ(memo->sessions().size(), 0u);
  ref->set_route_table(kService, weighted_table());
  std::uint64_t ref_misses = ref->fastpath_misses();
  EXPECT_EQ(round(8, /*reopen=*/true), 8u);
  EXPECT_EQ(ref->fastpath_misses(), ref_misses + 1);
  ASSERT_EQ(memo->sessions().size(), 1u);

  // So does an idle expiry.
  for (EngineFixture* fx : {&memo_fx, &ref_fx}) {
    fx->loop.run_until(fx->loop.now() + sim::seconds(10));
  }
  EXPECT_EQ(memo->sessions().expire_idle(memo_fx.loop.now(), sim::seconds(1)),
            1u);
  EXPECT_EQ(ref->sessions().expire_idle(ref_fx.loop.now(), sim::seconds(1)),
            1u);
  ref->set_route_table(kService, weighted_table());
  ref_misses = ref->fastpath_misses();
  EXPECT_EQ(round(8, /*reopen=*/true), 8u);
  EXPECT_EQ(ref->fastpath_misses(), ref_misses + 1);
  EXPECT_EQ(memo->fastpath_misses(), 1u);
}

}  // namespace
}  // namespace canal::proxy
