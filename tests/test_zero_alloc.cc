// Steady-state allocation discipline of the dataplanes' request paths
// (DESIGN.md §14).
//
// Referencing sim::alloc_count() links the counting operator new/delete
// from sim/alloc_hook.cc into this binary, so every global-heap allocation
// on this thread is observable. The contracts under test:
//   - After a short warm-up (pools filled, flat tables sized, fastpath
//     caches populated, scratch buffers grown), repeat requests on an
//     established connection perform ZERO global-heap allocations on every
//     plane — canal, istio, ambient, proxyless and no-mesh — a hard zero
//     over 1k requests, not a budget. All five follow the pooled-slot
//     rule: each request's state lives in a mesh::RequestSlots slot, every
//     hop closure captures only the slot pointer, and the slot is released
//     before the final `done` is invoked.
//   - Requests that each open a fresh mTLS connection through canal
//     (session insert and remove, route miss, mTLS handshakes, at least
//     one signed through the key server) stay within one allocation per
//     request.
//   - Every exit path (answer, 400/404/500/503 early return, proxyless's
//     ENI 403, a request lost in a link-loss window and recovered by the
//     retry layer's per-try timeout) completes its logical request exactly
//     once and returns its slots: a leaked slot would show up as a fresh
//     acquire (an allocation), a double release as two requests sharing
//     one slot. The retry layer's own state is pooled the same way; an
//     attempt's completion and timeout carry the attempt's generation, and
//     whichever arrives second finds it stale.
//
// Allocations per warm request, measured by the *WarmPath* cases: canal 0;
// istio 10, ambient 12, proxyless 9 and no-mesh 10 before those planes
// moved onto pooled slots, 0 after.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "canal/proxyless.h"
#include "crypto/keyserver.h"
#include "k8s/cluster.h"
#include "mesh/ambient.h"
#include "mesh/dataplane.h"
#include "mesh/istio.h"
#include "sim/alloc_hook.h"
#include "sim/event_loop.h"
#include "sim/fault.h"
#include "sim/flat_map.h"

namespace canal::core {
namespace {

enum class Plane { kCanal, kIstio, kAmbient, kProxyless, kNoMesh };

struct ZeroAllocTestbed {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(3), sim::Rng(307)};
  GatewayConfig config;
  std::unique_ptr<MeshGateway> gateway;
  std::unique_ptr<crypto::KeyServer> key_server;
  std::unique_ptr<mesh::MeshDataplane> plane;
  k8s::Service* frontend = nullptr;
  k8s::Service* backend_svc = nullptr;
  k8s::Service* dark = nullptr;  ///< installed, then every pod not ready
  k8s::AppProfile profile;

  /// `faults` (not owned) arms the plane's network with a fault plan;
  /// `dark_service` adds a service whose pods all stop being ready once
  /// the plane is installed, so requests to it end in a 503.
  explicit ZeroAllocTestbed(Plane kind = Plane::kCanal,
                            const sim::FaultPlan* faults = nullptr,
                            bool dark_service = false) {
    config.backends_per_service_local = 2;
    config.backends_per_service_remote = 1;
    if (kind == Plane::kCanal || kind == Plane::kProxyless) {
      gateway = std::make_unique<MeshGateway>(loop, config, sim::Rng(311));
      gateway->add_az(4);
      gateway->add_az(4);
    }
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
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = sim::seconds(2);
    profile.sigma = 0.05;
    for (int i = 0; i < 3; ++i) {
      cluster.add_pod(*frontend, profile).set_phase(k8s::PodPhase::kRunning);
      cluster.add_pod(*backend_svc, profile)
          .set_phase(k8s::PodPhase::kRunning);
    }
    if (dark_service) {
      dark = &cluster.add_service("dark");
      for (int i = 0; i < 2; ++i) {
        cluster.add_pod(*dark, profile).set_phase(k8s::PodPhase::kRunning);
      }
    }
    mesh::NetworkProfile network;
    network.faults = faults;
    switch (kind) {
      case Plane::kCanal: {
        key_server = std::make_unique<crypto::KeyServer>(
            loop, static_cast<net::AzId>(0), 8, sim::Rng(313));
        CanalMesh::Config mesh_config;
        mesh_config.network = network;
        auto canal = std::make_unique<CanalMesh>(loop, cluster, *gateway,
                                                 mesh_config, sim::Rng(317));
        canal->install();
        canal->attach_key_server(static_cast<net::AzId>(0), key_server.get());
        plane = std::move(canal);
        break;
      }
      case Plane::kIstio: {
        mesh::IstioMesh::Config mesh_config;
        mesh_config.network = network;
        auto istio = std::make_unique<mesh::IstioMesh>(loop, cluster,
                                                       mesh_config,
                                                       sim::Rng(317));
        istio->install();
        plane = std::move(istio);
        break;
      }
      case Plane::kAmbient: {
        mesh::AmbientMesh::Config mesh_config;
        mesh_config.network = network;
        auto ambient = std::make_unique<mesh::AmbientMesh>(
            loop, cluster, mesh_config, sim::Rng(317));
        ambient->install();
        plane = std::move(ambient);
        break;
      }
      case Plane::kProxyless: {
        ProxylessMesh::Config mesh_config;
        mesh_config.network = network;
        auto proxyless = std::make_unique<ProxylessMesh>(
            loop, cluster, *gateway, mesh_config, sim::Rng(317));
        proxyless->install();
        plane = std::move(proxyless);
        break;
      }
      case Plane::kNoMesh:
        plane = std::make_unique<mesh::NoMesh>(loop, cluster, network);
        break;
    }
    if (dark != nullptr) {
      for (k8s::Pod* pod : dark->endpoints) {
        pod->set_phase(k8s::PodPhase::kPending);
      }
    }
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
    plane->send_request(opts, [&status](mesh::RequestResult r) {
      status = r.status;
    });
    loop.run();
    return status;
  }
};

/// Debugging aid: CANAL_ALLOC_BACKTRACE=1 prints a backtrace for the first
/// offending allocations of a measured region when a bound regresses.
void arm_backtrace_if_requested() {
  if (std::getenv("CANAL_ALLOC_BACKTRACE") != nullptr) {
    sim::alloc_backtrace_arm(24);
  }
}

/// Warms `kind` up past the longest history window on one pinned flow,
/// then counts the global-heap allocations of 1000 more requests on it.
std::uint64_t warm_path_allocs(Plane kind) {
  ZeroAllocTestbed bed(kind);
  EXPECT_EQ(bed.run_one(bed.steady_request(true)), 200);
  while (bed.loop.now() < sim::hours(26)) {
    const int status = bed.run_one(bed.steady_request(false));
    EXPECT_EQ(status, 200);
    if (status != 200) return ~0ULL;
  }
  arm_backtrace_if_requested();
  const std::uint64_t allocs_before = sim::alloc_count();
  for (int i = 0; i < 1000; ++i) {
    const int status = bed.run_one(bed.steady_request(false));
    EXPECT_EQ(status, 200);
    if (status != 200) return ~0ULL;
  }
  return sim::alloc_count() - allocs_before;
}

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

  arm_backtrace_if_requested();
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
      bed.plane->send_request(bed.steady_request(false),
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
      bed.plane->send_request(bed.churn_request(port),
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

  arm_backtrace_if_requested();
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

TEST(ZeroAlloc, IstioWarmPathStaysOffTheHeap) {
  EXPECT_EQ(warm_path_allocs(Plane::kIstio), 0u);
}

TEST(ZeroAlloc, AmbientWarmPathStaysOffTheHeap) {
  EXPECT_EQ(warm_path_allocs(Plane::kAmbient), 0u);
}

TEST(ZeroAlloc, ProxylessWarmPathStaysOffTheHeap) {
  EXPECT_EQ(warm_path_allocs(Plane::kProxyless), 0u);
}

TEST(ZeroAlloc, NoMeshWarmPathStaysOffTheHeap) {
  EXPECT_EQ(warm_path_allocs(Plane::kNoMesh), 0u);
}

/// Drives every exit path of `kind`'s send_request through the retry layer
/// inside a 30% link-loss window, round after round: a plain request (200,
/// or 504 when every attempt is lost or late), a request with no client
/// (400), one to an unknown service (404, answered before the loss draw),
/// one from a client pod on a node that joined after the plane was
/// installed (no sidecar, ztunnel, on-node proxy or ENI: 500, or
/// proxyless's 403; no-mesh serves it) and one to the dark service (503).
/// Each logical request must complete exactly once with a status its path
/// allows. Returns the allocations of the rounds after warm-up.
std::uint64_t exit_path_allocs(Plane kind) {
  sim::FaultPlan faults;
  faults.link_loss(0, sim::hours(1000), 0.3);
  ZeroAllocTestbed bed(kind, &faults, /*dark_service=*/true);
  k8s::Node& late = bed.cluster.add_node(static_cast<net::AzId>(0), 8);
  k8s::Pod& orphan = bed.cluster.add_pod(*bed.frontend, bed.profile, &late);
  orphan.set_phase(k8s::PodPhase::kRunning);
  const int orphan_status = kind == Plane::kProxyless ? 403
                            : kind == Plane::kNoMesh  ? 200
                                                      : 500;

  struct Path {
    mesh::RequestOptions opts;
    std::vector<int> allowed;
  };
  std::vector<Path> paths;
  auto add_path = [&paths](mesh::RequestOptions opts,
                           std::vector<int> allowed) {
    paths.push_back({std::move(opts), std::move(allowed)});
  };
  mesh::RequestOptions ok = bed.steady_request(false);
  add_path(ok, {200, 504});
  mesh::RequestOptions no_client = ok;
  no_client.client = nullptr;
  add_path(no_client, {400});
  mesh::RequestOptions unknown = ok;
  unknown.dst_service = static_cast<net::ServiceId>(
      net::id_value(bed.backend_svc->id) + 1000);
  // Every plane answers 404 before it draws loss.
  add_path(unknown, {404});
  mesh::RequestOptions from_orphan = ok;
  from_orphan.client = &orphan;
  add_path(from_orphan, {orphan_status, 504});
  mesh::RequestOptions to_dark = ok;
  to_dark.dst_service = bed.dark->id;
  add_path(to_dark, {503, 504});

  // The per-try timeout sits at the pods' median service time, so about
  // half the answered attempts arrive after their timeout: the retry layer
  // must ignore those late completions while the dataplane still returns
  // their slots.
  mesh::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.per_try_timeout = sim::seconds(2);
  sim::Rng rng(331);
  struct Outcome {
    int completions = 0;
    int status = 0;
    bool timed_out = false;
  };
  std::vector<Outcome> outcomes(paths.size());
  // Rounds in which each path ended in its own status (allowed[0]), and
  // logical requests whose last attempt timed out.
  std::vector<int> answered(paths.size());
  int timed_out = 0;
  auto round = [&] {
    std::fill(outcomes.begin(), outcomes.end(), Outcome{});
    for (std::size_t i = 0; i < paths.size(); ++i) {
      Outcome* out = &outcomes[i];
      bed.plane->send_request_with_retries(
          paths[i].opts, policy, rng, [out](mesh::RequestResult r) {
            ++out->completions;
            out->status = r.status;
            out->timed_out = r.timed_out;
          });
    }
    bed.loop.run();
    for (std::size_t i = 0; i < paths.size(); ++i) {
      EXPECT_EQ(outcomes[i].completions, 1) << "path " << i;
      const auto& allowed = paths[i].allowed;
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), outcomes[i].status),
                allowed.end())
          << "path " << i << " ended in " << outcomes[i].status;
      if (outcomes[i].status == allowed.front()) ++answered[i];
      if (outcomes[i].timed_out) ++timed_out;
    }
    return !::testing::Test::HasFailure();
  };

  // Open the pinned connection; a handshake lost on the wire never
  // answers (status 0), so try again.
  int first = 0;
  for (int i = 0; i < 10 && first != 200; ++i) {
    first = bed.run_one(bed.steady_request(true));
  }
  EXPECT_EQ(first, 200);
  while (bed.loop.now() < sim::hours(26)) {
    if (!round()) return ~0ULL;
  }
  arm_backtrace_if_requested();
  const std::uint64_t allocs_before = sim::alloc_count();
  std::fill(answered.begin(), answered.end(), 0);
  timed_out = 0;
  for (int i = 0; i < 200; ++i) {
    if (!round()) return ~0ULL;
  }
  const std::uint64_t allocs = sim::alloc_count() - allocs_before;
  // Every path was really taken, and the per-try timeout really fired.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_GT(answered[i], 0) << "path " << i;
  }
  EXPECT_GT(timed_out, 0);
  return allocs;
}

TEST(ZeroAlloc, CanalExitPathsReleaseSlotsOnce) {
  EXPECT_EQ(exit_path_allocs(Plane::kCanal), 0u);
}

TEST(ZeroAlloc, IstioExitPathsReleaseSlotsOnce) {
  EXPECT_EQ(exit_path_allocs(Plane::kIstio), 0u);
}

TEST(ZeroAlloc, AmbientExitPathsReleaseSlotsOnce) {
  EXPECT_EQ(exit_path_allocs(Plane::kAmbient), 0u);
}

TEST(ZeroAlloc, ProxylessExitPathsReleaseSlotsOnce) {
  EXPECT_EQ(exit_path_allocs(Plane::kProxyless), 0u);
}

TEST(ZeroAlloc, NoMeshExitPathsReleaseSlotsOnce) {
  EXPECT_EQ(exit_path_allocs(Plane::kNoMesh), 0u);
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
