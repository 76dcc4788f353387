// Unit tests for the K8s substrate: cluster inventory, pod app model,
// controller push/southbound accounting, health probing.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "k8s/cluster.h"
#include "k8s/controller.h"
#include "k8s/health.h"
#include "k8s/objects.h"
#include "sim/rng.h"
#include "tests/testutil.h"

namespace canal::k8s {
namespace {

Cluster make_cluster(sim::EventLoop& loop, std::size_t nodes = 2) {
  Cluster cluster(loop, static_cast<net::TenantId>(1), sim::Rng(131));
  for (std::size_t i = 0; i < nodes; ++i) {
    cluster.add_node(static_cast<net::AzId>(0), 4);
  }
  return cluster;
}

TEST(Cluster, NodeAndServiceAllocation) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop, 3);
  EXPECT_EQ(cluster.nodes().size(), 3u);
  Service& service = cluster.add_service("frontend");
  EXPECT_EQ(service.name, "frontend");
  EXPECT_EQ(service.tenant, static_cast<net::TenantId>(1));
  EXPECT_EQ(cluster.find_service("frontend"), &service);
  EXPECT_EQ(cluster.find_service("missing"), nullptr);
}

TEST(Cluster, ServiceIdsEmbedTenant) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  EXPECT_EQ(net::id_value(service.id) >> 32, 1u);
}

TEST(Cluster, PodPlacementBalances) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop, 2);
  Service& service = cluster.add_service("s");
  for (int i = 0; i < 10; ++i) {
    cluster.add_pod(service, AppProfile{});
  }
  std::size_t on_first = cluster.pods_on(*cluster.nodes()[0]).size();
  std::size_t on_second = cluster.pods_on(*cluster.nodes()[1]).size();
  EXPECT_EQ(on_first, 5u);
  EXPECT_EQ(on_second, 5u);
}

TEST(Cluster, PodLifecycle) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  Pod& pod = cluster.add_pod(service, AppProfile{});
  EXPECT_EQ(pod.phase(), PodPhase::kPending);
  EXPECT_FALSE(pod.ready());
  pod.set_phase(PodPhase::kRunning);
  EXPECT_TRUE(pod.ready());
  EXPECT_EQ(cluster.running_pods(), 1u);
  ASSERT_EQ(service.endpoints.size(), 1u);
  EXPECT_TRUE(service.endpoints.front()->ready());

  cluster.remove_pod(pod.id());
  EXPECT_EQ(pod.phase(), PodPhase::kTerminated);
  EXPECT_TRUE(service.endpoints.empty());
}

// The node fewest-pods-first placement must pick: the first node with the
// fewest non-terminated pods, counted the slow way.
const Node* naive_placement(const Cluster& cluster) {
  const Node* best = nullptr;
  std::size_t best_count = SIZE_MAX;
  for (const auto& node : cluster.nodes()) {
    std::size_t count = 0;
    for (const auto& pod : cluster.pods()) {
      if (&pod->node() == node.get() &&
          pod->phase() != PodPhase::kTerminated) {
        ++count;
      }
    }
    if (count < best_count) {
      best_count = count;
      best = node.get();
    }
  }
  return best;
}

TEST(Cluster, PlacementMatchesNaiveCountOverRandomChurn) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop, 5);
  // A node owned by another cluster: pods placed on it explicitly count
  // toward none of this cluster's nodes.
  Cluster other = make_cluster(loop, 1);
  Service& service = cluster.add_service("s");
  sim::Rng rng(7);
  std::size_t auto_placed = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto op = rng.uniform_int(0, 99);
    if (op < 55) {
      const Node* expected = naive_placement(cluster);
      EXPECT_EQ(&cluster.add_pod(service, AppProfile{}).node(), expected)
          << "step " << step;
      ++auto_placed;
    } else if (op < 70) {
      Node* node = cluster.nodes()[static_cast<std::size_t>(
                                       rng.uniform_int(0, 4))]
                       .get();
      EXPECT_EQ(&cluster.add_pod(service, AppProfile{}, node).node(), node);
    } else if (op < 75) {
      Node* foreign = other.nodes().front().get();
      EXPECT_EQ(&cluster.add_pod(service, AppProfile{}, foreign).node(),
                foreign);
    } else if (!cluster.pods().empty()) {
      const auto id = static_cast<net::PodId>(rng.uniform_int(
          1, static_cast<std::int64_t>(cluster.pod_count())));
      if (op < 92) {
        cluster.remove_pod(id);  // may repeat: removing twice is a no-op
      } else {
        // Terminated without remove_pod, or a phase flip back.
        cluster.find_pod(id)->set_phase(op < 96 ? PodPhase::kTerminated
                                                : PodPhase::kRunning);
      }
    }
  }
  EXPECT_GT(auto_placed, 1000u);
}

TEST(Cluster, FindPodByIdIncludingTerminated) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop, 3);
  Service& service = cluster.add_service("s");
  std::vector<Pod*> pods;
  for (int i = 0; i < 20; ++i) {
    pods.push_back(&cluster.add_pod(service, AppProfile{}));
  }
  EXPECT_EQ(cluster.find_pod(static_cast<net::PodId>(0)), nullptr);
  for (Pod* pod : pods) EXPECT_EQ(cluster.find_pod(pod->id()), pod);
  EXPECT_EQ(cluster.find_pod(static_cast<net::PodId>(21)), nullptr);
  EXPECT_EQ(cluster.find_pod(static_cast<net::PodId>(UINT64_MAX)), nullptr);
  cluster.remove_pod(pods[4]->id());
  Pod* removed = cluster.find_pod(pods[4]->id());
  EXPECT_EQ(removed, pods[4]);
  EXPECT_EQ(removed->phase(), PodPhase::kTerminated);
}

TEST(Cluster, FindServiceByIdIndexesTheLowBits) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Cluster other(loop, static_cast<net::TenantId>(2), sim::Rng(137));
  std::vector<Service*> services;
  for (int i = 0; i < 12; ++i) {
    services.push_back(&cluster.add_service(testutil::numbered("s", i)));
    other.add_service(testutil::numbered("t", i));
  }
  for (Service* service : services) {
    EXPECT_EQ(cluster.find_service(service->id), service);
  }
  // Same low bits, another tenant: not this cluster's service.
  for (const auto& foreign : other.services()) {
    EXPECT_EQ(cluster.find_service(foreign->id), nullptr);
  }
  const std::uint64_t tenant = std::uint64_t{1} << 32;
  for (const std::uint64_t raw : {std::uint64_t{0}, tenant, tenant | 13,
                                  tenant | 0xFFFF'FFFFu, ~std::uint64_t{0}}) {
    EXPECT_EQ(cluster.find_service(static_cast<net::ServiceId>(raw)), nullptr)
        << raw;
  }
}

TEST(Cluster, UniquePodIps) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  std::set<net::Ipv4Addr> ips;
  for (int i = 0; i < 50; ++i) {
    ips.insert(cluster.add_pod(service, AppProfile{}).ip());
  }
  EXPECT_EQ(ips.size(), 50u);
}

TEST(Pod, ServesRequestWithServiceTime) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  AppProfile profile;
  profile.fast_fraction = 1.0;
  profile.fast_service_mean = sim::milliseconds(10);
  profile.sigma = 0.01;
  Pod& pod = cluster.add_pod(service, profile);
  pod.set_phase(PodPhase::kRunning);

  http::Request req;
  sim::TimePoint answered = -1;
  int status = 0;
  pod.handle_request(req, [&](http::Response& resp) {
    answered = loop.now();
    status = resp.status;
  });
  loop.run();
  EXPECT_EQ(status, 200);
  EXPECT_GT(answered, sim::milliseconds(5));
  EXPECT_EQ(pod.requests_served(), 1u);
}

TEST(Pod, TerminatedAnswers503) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  Pod& pod = cluster.add_pod(service, AppProfile{});
  pod.set_phase(PodPhase::kTerminated);
  http::Request req;
  int status = 0;
  pod.handle_request(req, [&](http::Response& resp) { status = resp.status; });
  loop.run();
  EXPECT_EQ(status, 503);
}

TEST(Pod, PooledResponseMatchesFreshBytes) {
  // One request at a time, so every answer reuses the same pooled response:
  // its bytes must equal a fresh response built with HeaderMap::set(),
  // through 200s, app 500s, and a 503 (which resets the headers) between.
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  AppProfile profile;
  profile.app_error_rate = 0.3;
  profile.response_bytes = 12345;
  Pod& pod = cluster.add_pod(service, profile);
  std::set<int> statuses;
  for (int i = 0; i < 24; ++i) {
    pod.set_phase(i % 8 == 5 ? PodPhase::kTerminated : PodPhase::kRunning);
    http::Request req;
    req.path = "/item/" + std::string(static_cast<std::size_t>(i), 'p');
    pod.handle_request(req, [&](http::Response& resp) {
      http::Response fresh;
      fresh.status = resp.status;
      fresh.reason = std::string(http::reason_phrase(resp.status));
      fresh.body = resp.body;
      if (resp.status != 503) {
        EXPECT_EQ(resp.body.size(), profile.response_bytes);
        fresh.headers.set("Content-Length",
                          std::to_string(profile.response_bytes));
        fresh.headers.set("X-Request-Path", req.path);
      }
      EXPECT_EQ(resp.serialize(), fresh.serialize()) << "request " << i;
      statuses.insert(resp.status);
    });
    loop.run();
  }
  EXPECT_EQ(statuses, (std::set<int>{200, 500, 503}));
}

TEST(Pod, AppErrorRateProducesErrors) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  AppProfile profile;
  profile.app_error_rate = 0.5;
  profile.fast_service_mean = sim::microseconds(1);
  profile.slow_service_mean = sim::microseconds(1);
  Pod& pod = cluster.add_pod(service, profile);
  pod.set_phase(PodPhase::kRunning);
  int errors = 0;
  for (int i = 0; i < 200; ++i) {
    http::Request req;
    pod.handle_request(req, [&](http::Response& resp) {
      if (resp.is_error()) ++errors;
    });
  }
  loop.run();
  EXPECT_NEAR(errors, 100, 30);
}

TEST(AppProfile, BimodalServiceTimes) {
  AppProfile profile;  // defaults: 45 ms / 140 ms modes
  sim::Rng rng(137);
  int fast = 0, slow = 0;
  for (int i = 0; i < 4000; ++i) {
    const double ms = sim::to_milliseconds(profile.sample_service_time(rng));
    if (ms < 90.0) ++fast;
    else ++slow;
  }
  // 60/40 mixture (Fig 24's two latency modes).
  EXPECT_NEAR(static_cast<double>(fast) / 4000.0, 0.6, 0.05);
  EXPECT_GT(slow, 0);
}

TEST(Southbound, SerializesTransfersFifo) {
  sim::EventLoop loop;
  // 8 Mbps, zero latency: 1 MB takes 1 s.
  SouthboundChannel channel(loop, 8'000'000, 0);
  sim::TimePoint first = -1, second = -1;
  channel.transfer(1'000'000, [&] { first = loop.now(); });
  channel.transfer(1'000'000, [&] { second = loop.now(); });
  loop.run();
  EXPECT_EQ(first, sim::seconds(1));
  EXPECT_EQ(second, sim::seconds(2));
  EXPECT_EQ(channel.total_bytes(), 2'000'000u);
}

TEST(Southbound, PeakBandwidthTracked) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 100'000'000, 0);
  channel.transfer(1'000'000);
  loop.run();
  EXPECT_GT(channel.peak_bps(), 0.0);
  EXPECT_LE(channel.peak_bps(), 100'000'000.0 * 1.1);
}

TEST(Controller, PushReportAccounting) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 100'000'000);
  Controller controller(loop, 4, channel);
  std::optional<PushReport> report;
  controller.push_update({{"p1", 10'000}, {"p2", 10'000}},
                         [&](PushReport r) { report = r; });
  loop.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->targets, 2u);
  EXPECT_EQ(report->bytes_pushed, 20'000u);
  EXPECT_GT(report->build_time, 0);
  EXPECT_GT(report->total_time, report->build_time);
  EXPECT_EQ(controller.updates_completed(), 1u);
}

TEST(Controller, BuildTimeScalesWithTargets) {
  sim::EventLoop loop1, loop2;
  SouthboundChannel ch1(loop1, 1'000'000'000), ch2(loop2, 1'000'000'000);
  Controller small(loop1, 1, ch1), large(loop2, 1, ch2);

  std::vector<ConfigTarget> few(10, {"p", 50'000});
  std::vector<ConfigTarget> many(100, {"p", 50'000});
  sim::Duration small_build = 0, large_build = 0;
  small.push_update(few, [&](PushReport r) { small_build = r.build_time; });
  large.push_update(many, [&](PushReport r) { large_build = r.build_time; });
  loop1.run();
  loop2.run();
  EXPECT_GT(large_build, 5 * small_build);
}

TEST(Controller, PushTimeBoundBySouthbandBandwidth) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 8'000'000, 0);  // 1 MB/s
  Controller controller(loop, 8, channel);
  std::optional<PushReport> report;
  controller.push_update(std::vector<ConfigTarget>(10, {"p", 100'000}),
                         [&](PushReport r) { report = r; });
  loop.run();
  ASSERT_TRUE(report.has_value());
  // 1 MB at 1 MB/s ≈ 1 s of pure push time.
  EXPECT_GE(report->total_time - report->build_time, sim::seconds(1));
}

TEST(Controller, EmptyUpdateCompletes) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 1'000'000);
  Controller controller(loop, 1, channel);
  bool done = false;
  controller.push_update({}, [&](PushReport r) {
    done = true;
    EXPECT_EQ(r.targets, 0u);
  });
  loop.run();
  EXPECT_TRUE(done);
}

TEST(HealthProber, ProbesAllTargetsPeriodically) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  Pod& p1 = cluster.add_pod(service, AppProfile{});
  Pod& p2 = cluster.add_pod(service, AppProfile{});
  p1.set_phase(PodPhase::kRunning);
  p2.set_phase(PodPhase::kRunning);

  HealthProber prober(loop, sim::seconds(1));
  prober.add_target(&p1);
  prober.add_target(&p2);
  prober.start(sim::seconds(1));
  loop.run_until(sim::seconds(10));
  prober.stop();
  EXPECT_EQ(prober.probes_sent(), 20u);
  EXPECT_EQ(p1.health_probes_received(), 10u);
  EXPECT_TRUE(prober.last_healthy(&p1));
}

TEST(HealthProber, DetectsUnhealthyTargets) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  Pod& pod = cluster.add_pod(service, AppProfile{});
  pod.set_phase(PodPhase::kRunning);
  HealthProber prober(loop, sim::seconds(1));
  prober.add_target(&pod);
  prober.start(sim::seconds(1));
  loop.run_until(sim::seconds(2));
  EXPECT_TRUE(prober.last_healthy(&pod));
  pod.set_phase(PodPhase::kTerminated);
  loop.run_until(sim::seconds(4));
  EXPECT_FALSE(prober.last_healthy(&pod));
}

// Property sweep: controller full-push volume grows quadratically with
// pods under the per-pod-sidecar model (the §2.1 O(N^2) observation).
class FullPushSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FullPushSweep, BytesGrowQuadratically) {
  const std::size_t pods = GetParam();
  // Full config is O(pods) per sidecar; pushing to all pods is O(pods^2).
  const std::size_t per_sidecar = 100 * pods;
  const std::size_t total = per_sidecar * pods;
  EXPECT_EQ(total, 100 * pods * pods);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FullPushSweep,
                         ::testing::Values(10, 100, 1000));

}  // namespace
}  // namespace canal::k8s
