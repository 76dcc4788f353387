// Steady-state allocation discipline of the Canal request path (DESIGN.md
// §14).
//
// Referencing sim::alloc_count() links the counting operator new/delete
// from sim/alloc_hook.cc into this binary, so every global-heap allocation
// on this thread is observable. The contracts under test: after a short
// warm-up (pools filled, flat tables sized, fastpath caches populated,
// scratch buffers grown), repeat requests on an established connection
// perform ZERO global-heap allocations — a hard zero over 1k requests,
// not a budget — and requests that each open a fresh mTLS connection
// (session insert and remove, route miss, mTLS handshakes, at least one
// signed through the key server) stay within one allocation per request.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "crypto/keyserver.h"
#include "k8s/cluster.h"
#include "mesh/dataplane.h"
#include "sim/alloc_hook.h"
#include "sim/event_loop.h"
#include "sim/flat_map.h"

namespace canal::core {
namespace {

struct ZeroAllocTestbed {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(3), sim::Rng(307)};
  GatewayConfig config;
  std::unique_ptr<MeshGateway> gateway;
  std::unique_ptr<CanalMesh> canal;
  std::unique_ptr<crypto::KeyServer> key_server;
  k8s::Service* frontend = nullptr;
  k8s::Service* backend_svc = nullptr;

  ZeroAllocTestbed() {
    config.backends_per_service_local = 2;
    config.backends_per_service_remote = 1;
    gateway = std::make_unique<MeshGateway>(loop, config, sim::Rng(311));
    gateway->add_az(4);
    gateway->add_az(4);
    cluster.add_node(static_cast<net::AzId>(0), 8);
    cluster.add_node(static_cast<net::AzId>(1), 8);
    frontend = &cluster.add_service("frontend");
    backend_svc = &cluster.add_service("backend");
    // Long think time: each request advances simulated time ~2s, so a
    // modest warm-up pushes the clock past every bounded history window —
    // CpuCore keeps 5 minutes of busy intervals, ServiceStats keeps 25
    // hours of RPS history for §6.3 pattern analysis. Only once the clock
    // clears the longest window do windowed rings reach their
    // sliding-plateau size: the true steady state the zero is about.
    k8s::AppProfile profile;
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = sim::seconds(2);
    profile.sigma = 0.05;
    for (int i = 0; i < 3; ++i) {
      cluster.add_pod(*frontend, profile).set_phase(k8s::PodPhase::kRunning);
      cluster.add_pod(*backend_svc, profile)
          .set_phase(k8s::PodPhase::kRunning);
    }
    key_server = std::make_unique<crypto::KeyServer>(
        loop, static_cast<net::AzId>(0), 8, sim::Rng(313));
    CanalMesh::Config mesh_config;
    canal = std::make_unique<CanalMesh>(loop, cluster, *gateway, mesh_config,
                                        sim::Rng(317));
    canal->install();
    canal->attach_key_server(static_cast<net::AzId>(0), key_server.get());
  }

  /// Repeat request on one established connection: pinned source port,
  /// no handshake, no teardown — the flow the fastpath caches key on.
  mesh::RequestOptions steady_request(bool first) const {
    mesh::RequestOptions opts;
    opts.client = frontend->endpoints.front();
    opts.dst_service = backend_svc->id;
    opts.src_port = 40000;
    opts.new_connection = first;
    opts.close_after = false;
    return opts;
  }

  /// A fresh mTLS connection per request, closed after it: the session
  /// tables insert and remove, the route caches miss, and the on-node hops
  /// handshake (AZ 0's through its key server).
  mesh::RequestOptions churn_request(std::uint16_t port) const {
    mesh::RequestOptions opts;
    opts.client = frontend->endpoints.front();
    opts.dst_service = backend_svc->id;
    opts.src_port = port;
    opts.new_connection = true;
    opts.close_after = true;
    return opts;
  }

  int run_one(const mesh::RequestOptions& opts) {
    int status = 0;
    canal->send_request(opts, [&status](mesh::RequestResult r) {
      status = r.status;
    });
    loop.run();
    return status;
  }
};

TEST(ZeroAlloc, CanalFastpathSteadyStateIsAllocationFree) {
  ZeroAllocTestbed bed;
  // Warm-up: the first request pays handshakes, pool fills, cache sizing
  // and scratch-buffer growth; the rest advance simulated time past the
  // longest bounded history window (25 h of RPS pattern history), after
  // which every windowed ring holds steady size — old entries rotate out
  // as new ones rotate in, with no further capacity growth.
  ASSERT_EQ(bed.run_one(bed.steady_request(true)), 200);
  while (bed.loop.now() < sim::hours(26)) {
    ASSERT_EQ(bed.run_one(bed.steady_request(false)), 200);
  }

  // Debugging aid: CANAL_ALLOC_BACKTRACE=1 prints a backtrace for the
  // first offending allocations when the zero regresses.
  if (std::getenv("CANAL_ALLOC_BACKTRACE") != nullptr) {
    sim::alloc_backtrace_arm(24);
  }
  const std::uint64_t allocs_before = sim::alloc_count();
  const std::uint64_t frees_before = sim::dealloc_count();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(bed.run_one(bed.steady_request(false)), 200);
  }
  const std::uint64_t allocs = sim::alloc_count() - allocs_before;
  const std::uint64_t frees = sim::dealloc_count() - frees_before;
  EXPECT_EQ(allocs, 0u) << "steady-state requests hit the global heap "
                        << allocs << " times (" << frees << " frees)";
}

TEST(ZeroAlloc, WarmPathStaysFreeAcrossTrafficBursts) {
  // The zero must survive bursts of in-flight concurrency, not just
  // one-at-a-time requests: pools size to peak outstanding, then reuse.
  ZeroAllocTestbed bed;
  ASSERT_EQ(bed.run_one(bed.steady_request(true)), 200);
  auto burst = [&bed](int n) {
    int completed = 0;
    for (int i = 0; i < n; ++i) {
      bed.canal->send_request(bed.steady_request(false),
                              [&completed](mesh::RequestResult r) {
                                EXPECT_EQ(r.status, 200);
                                ++completed;
                              });
    }
    bed.loop.run();
    return completed;
  };
  // Warm-up, phase one: sequential requests slide the clock past the
  // longest history window (25 h) cheaply. Phase two: enough burst rounds
  // to fill CpuCore's whole 5-minute interval window at burst density, so
  // every pool holds 32 slots and the measured rounds repeat a pattern
  // whose windowed rings are already at their plateau.
  while (bed.loop.now() < sim::hours(26)) {
    ASSERT_EQ(bed.run_one(bed.steady_request(false)), 200);
  }
  for (int round = 0; round < 160; ++round) {
    ASSERT_EQ(burst(32), 32);
  }
  const std::uint64_t before = sim::alloc_count();
  for (int round = 0; round < 10; ++round) {
    ASSERT_EQ(burst(32), 32);
  }
  EXPECT_EQ(sim::alloc_count() - before, 0u);
}

TEST(ZeroAlloc, ConnectionChurnStaysUnderOneAllocationPerRequest) {
  ZeroAllocTestbed bed;
  const crypto::KeyServer& server = *bed.key_server;
  // Bursts of 8 concurrent connections on rotating source ports: each burst
  // fills one accelerator batch, and the session tables see interleaved
  // inserts and removes of distinct flows.
  constexpr int kBurst = 8;
  constexpr int kPorts = 64;
  int next_port = 0;
  auto burst = [&] {
    int ok = 0;
    for (int i = 0; i < kBurst; ++i) {
      const auto port = static_cast<std::uint16_t>(41000 + next_port);
      next_port = (next_port + 1) % kPorts;
      bed.canal->send_request(bed.churn_request(port),
                              [&ok](mesh::RequestResult r) {
                                if (r.status == 200) ++ok;
                              });
    }
    bed.loop.run();
    return ok;
  };
  // Warm-up: pools, flat tables, windowed rings and scratch buffers reach
  // their working size.
  while (bed.loop.now() < sim::hours(1)) {
    ASSERT_EQ(burst(), kBurst);
  }

  if (std::getenv("CANAL_ALLOC_BACKTRACE") != nullptr) {
    sim::alloc_backtrace_arm(24);
  }
  const std::uint64_t served_before = server.requests_served();
  const std::uint64_t allocs_before = sim::alloc_count();
  constexpr int kRequests = 1000;
  for (int i = 0; i < kRequests / kBurst; ++i) {
    ASSERT_EQ(burst(), kBurst);
  }
  const std::uint64_t allocs = sim::alloc_count() - allocs_before;
  // The handshakes really went through the key server.
  EXPECT_GE(server.requests_served() - served_before,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(allocs, static_cast<std::uint64_t>(kRequests))
      << "connection churn hit the global heap " << allocs << " times over "
      << kRequests << " requests";
}

TEST(ZeroAlloc, FlatHashMapChurnPurgesInPlace) {
  // Insert/erase churn near the load ceiling leaves tombstones that no
  // erase can clear, so the table purges them; the purge must reuse its
  // arrays. 48-56 live keys keep a 64-slot table at the ceiling.
  sim::FlatHashMap<std::uint64_t, std::uint64_t> map;
  std::uint64_t next = 0;
  std::uint64_t oldest = 0;
  auto step = [&] {
    map[next] = next;
    ++next;
    if (map.size() > 48 + next % 9) {
      EXPECT_EQ(map.erase(oldest), 1u);
      ++oldest;
    }
  };
  for (int i = 0; i < 1000; ++i) step();
  const std::size_t buckets = map.bucket_count();
  const std::uint64_t before = sim::alloc_count();
  for (int i = 0; i < 10000; ++i) step();
  EXPECT_EQ(sim::alloc_count() - before, 0u);
  EXPECT_EQ(map.bucket_count(), buckets);
  for (std::uint64_t k = oldest; k < next; ++k) {
    ASSERT_TRUE(map.contains(k)) << k;
  }
}

TEST(ZeroAlloc, AllocHookCountsThisThread) {
  // Sanity-check the probe itself: a heap allocation must move the
  // counter (otherwise the zeros above would be vacuous).
  const std::uint64_t before = sim::alloc_count();
  auto* p = new std::uint64_t(41);
  EXPECT_GT(sim::alloc_count(), before);
  const std::uint64_t frees_before = sim::dealloc_count();
  delete p;
  EXPECT_GT(sim::dealloc_count(), frees_before);
}

}  // namespace
}  // namespace canal::core
