// Control-plane dynamics: epoch propagation through the modeled
// controller (build CPU + southbound bandwidth), supersede semantics for
// overlapping pushes, stale-window bounds, rotation-schedule determinism,
// and the southbound channel's FIFO fairness.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/accelerator.h"
#include "crypto/cert.h"
#include "crypto/rotation.h"
#include "http/route.h"
#include "k8s/cluster.h"
#include "k8s/controller.h"
#include "k8s/propagation.h"
#include "mesh/istio.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/rng.h"

namespace canal::k8s {
namespace {

// --- SouthboundChannel ------------------------------------------------

// Three transfers issued at the same instant share the channel FIFO:
// each one's completion is the cumulative serialization of everything
// ahead of it. No transfer is starved, none overtakes.
TEST(SouthboundChannel, FifoFairnessAcrossConcurrentTransfers) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 8'000'000, /*latency=*/0);  // 1 MB/s
  std::vector<sim::TimePoint> done;
  channel.transfer(1'000, [&] { done.push_back(loop.now()); });
  channel.transfer(2'000, [&] { done.push_back(loop.now()); });
  channel.transfer(3'000, [&] { done.push_back(loop.now()); });
  loop.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], sim::milliseconds(1));  // 1 KB at 1 MB/s
  EXPECT_EQ(done[1], sim::milliseconds(3));  // + 2 KB
  EXPECT_EQ(done[2], sim::milliseconds(6));  // + 3 KB
  EXPECT_EQ(channel.total_bytes(), 6'000u);
}

TEST(SouthboundChannel, LatencyAddsPerTransferNotPerQueue) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 8'000'000, sim::microseconds(500));
  std::vector<sim::TimePoint> done;
  channel.transfer(1'000, [&] { done.push_back(loop.now()); });
  channel.transfer(1'000, [&] { done.push_back(loop.now()); });
  loop.run();
  ASSERT_EQ(done.size(), 2u);
  // Propagation latency rides on top of each transfer's serialization
  // finish; queued transfers do not pay it twice.
  EXPECT_EQ(done[0], sim::milliseconds(1) + sim::microseconds(500));
  EXPECT_EQ(done[1], sim::milliseconds(2) + sim::microseconds(500));
}

// --- Controller -------------------------------------------------------

TEST(Controller, ZeroTargetPushCompletesWithoutDeliveries) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 100'000'000);
  Controller controller(loop, 4, channel);
  std::size_t deliveries = 0;
  bool finished = false;
  controller.push_update(
      {},
      [&](PushReport report) {
        finished = true;
        EXPECT_EQ(report.targets, 0u);
        EXPECT_EQ(report.bytes_pushed, 0u);
        EXPECT_EQ(report.build_time, 0);
        EXPECT_EQ(report.total_time, 0);
      },
      [&](std::size_t, const ConfigTarget&) { ++deliveries; });
  loop.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(controller.updates_completed(), 1u);
  EXPECT_EQ(channel.total_bytes(), 0u);
}

TEST(Controller, DeliversTargetsInOrderWithIndices) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 100'000'000);
  Controller controller(loop, 4, channel);
  std::vector<std::string> delivered;
  controller.push_update(
      {{"a", 1'000}, {"b", 1'000}, {"c", 1'000}}, nullptr,
      [&](std::size_t index, const ConfigTarget& target) {
        EXPECT_EQ(index, delivered.size());
        delivered.push_back(target.name);
      });
  loop.run();
  EXPECT_EQ(delivered, (std::vector<std::string>{"a", "b", "c"}));
}

// --- ConfigPropagation: epoch accounting ------------------------------

TEST(ConfigPropagation, ZeroTargetEpochConvergesImmediately) {
  sim::EventLoop loop;
  ConfigPropagation propagation(loop, ControlPlaneProfile{});
  bool finished = false;
  const std::uint64_t epoch =
      propagation.push_epoch({}, [&](EpochReport report) {
        finished = true;
        EXPECT_EQ(report.epoch, 1u);
        EXPECT_EQ(report.targets, 0u);
        EXPECT_EQ(report.applied, 0u);
        EXPECT_EQ(report.superseded, 0u);
      });
  loop.run();
  EXPECT_EQ(epoch, 1u);
  EXPECT_TRUE(finished);
  EXPECT_TRUE(propagation.converged());
  EXPECT_EQ(propagation.epoch_skew(), 0u);
}

// Convergence accounting against hand-computed costs. Profile: 8 cores,
// 100 Mbps southbound, 500 us propagation latency, build cost
// 18 ns/byte + 150 us/target.
//
//   build   = max(18*10000 + 150us, 18*20000 + 150us)       = 510 us
//   ser(a)  = 10000 * 8 / 100 Mbps                           = 800 us
//   ser(b)  = 20000 * 8 / 100 Mbps                           = 1600 us
//   deliver(a) = build + ser(a) + latency                    = 1810 us
//   deliver(b) = build + ser(a) + ser(b) + latency           = 3410 us
TEST(ConfigPropagation, ConvergenceMatchesHandComputedCosts) {
  sim::EventLoop loop;
  ControlPlaneProfile profile;
  profile.southbound_bandwidth_bps = 100'000'000;
  ConfigPropagation propagation(loop, profile);

  sim::TimePoint applied_a = 0;
  sim::TimePoint applied_b = 0;
  std::vector<EpochTarget> targets;
  targets.push_back({{"a", 10'000}, [&] { applied_a = loop.now(); }});
  targets.push_back({{"b", 20'000}, [&] { applied_b = loop.now(); }});
  EpochReport report;
  propagation.push_epoch(std::move(targets),
                         [&](EpochReport r) { report = r; });
  loop.run();

  EXPECT_EQ(report.build_time, sim::microseconds(510));
  EXPECT_EQ(applied_a, sim::microseconds(1810));
  EXPECT_EQ(applied_b, sim::microseconds(3410));
  EXPECT_EQ(report.convergence_time, sim::microseconds(3410));
  EXPECT_EQ(report.bytes_pushed, 30'000u);
  EXPECT_EQ(report.applied, 2u);
  EXPECT_EQ(report.superseded, 0u);
  EXPECT_TRUE(propagation.converged());
}

// Three equal-sized epochs issued back-to-back: the FIFO channel delivers
// them in issue order, so every proxy sees a strictly increasing epoch
// sequence with nothing superseded.
TEST(ConfigPropagation, EpochMonotonicityPerProxy) {
  sim::EventLoop loop;
  ConfigPropagation propagation(loop, ControlPlaneProfile{});
  std::vector<std::vector<std::uint64_t>> seen(3);
  for (int e = 0; e < 3; ++e) {
    std::vector<EpochTarget> targets;
    for (int p = 0; p < 3; ++p) {
      const std::string name = "proxy-" + std::to_string(p);
      // Filled in place: a braced EpochTarget temporary trips GCC 12's
      // -Wmaybe-uninitialized on its string's destructor.
      EpochTarget& target = targets.emplace_back();
      target.target = {name, 5'000};
      target.apply = [&propagation, &seen, p, name] {
        seen[p].push_back(propagation.acked_epoch(name));
      };
    }
    propagation.push_epoch(std::move(targets));
  }
  loop.run();
  EXPECT_EQ(propagation.latest_epoch(), 3u);
  EXPECT_EQ(propagation.superseded_total(), 0u);
  EXPECT_EQ(propagation.applies_total(), 9u);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(seen[p], (std::vector<std::uint64_t>{1, 2, 3}))
        << "proxy " << p;
  }
  EXPECT_TRUE(propagation.converged());
  EXPECT_EQ(propagation.epoch_skew(), 0u);
}

// Stale-window bound: with sequential (in-order) pushes, the moment any
// proxy acks epoch N, every proxy has acked at least N-1 — the fleet is
// never more than one epoch apart. Checked inside every apply callback,
// i.e. at each point where the window is widest.
TEST(ConfigPropagation, StaleWindowNeverExceedsOneEpoch) {
  sim::EventLoop loop;
  ConfigPropagation propagation(loop, ControlPlaneProfile{});
  const std::vector<std::string> names = {"p0", "p1", "p2", "p3"};
  bool window_held = true;
  for (int e = 1; e <= 3; ++e) {
    std::vector<EpochTarget> targets;
    for (const std::string& name : names) {
      EpochTarget& target = targets.emplace_back();
      target.target = {name, 8'000};
      target.apply = [&propagation, &names, &window_held, e] {
        for (const std::string& other : names) {
          if (propagation.acked_epoch(other) + 1 <
              static_cast<std::uint64_t>(e)) {
            window_held = false;
          }
        }
        if (propagation.epoch_skew() > 1) window_held = false;
      };
    }
    propagation.push_epoch(std::move(targets));
  }
  loop.run();
  EXPECT_TRUE(window_held);
  EXPECT_TRUE(propagation.converged());
}

// Supersede semantics for overlapping pushes. Epoch 1 carries a huge
// config whose build monopolizes one controller core for milliseconds;
// epoch 2, issued at the same instant, builds in parallel on a free core
// and reaches the wire first. The proxy acks 2, then drops the late 1.
TEST(ConfigPropagation, OverlappingPushSupersedesStaleEpoch) {
  sim::EventLoop loop;
  ConfigPropagation propagation(loop, ControlPlaneProfile{});
  std::vector<std::uint64_t> applied_epochs;
  EpochReport stale_report;
  EpochReport fresh_report;

  propagation.push_epoch({{{"p", 1'000'000},
                           [&] { applied_epochs.push_back(1); }}},
                         [&](EpochReport r) { stale_report = r; });
  propagation.push_epoch(
      {{{"p", 100}, [&] { applied_epochs.push_back(2); }}},
      [&](EpochReport r) { fresh_report = r; });
  loop.run();

  // Only epoch 2's apply ran; epoch 1 arrived late and was dropped.
  EXPECT_EQ(applied_epochs, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(propagation.acked_epoch("p"), 2u);
  EXPECT_EQ(stale_report.applied, 0u);
  EXPECT_EQ(stale_report.superseded, 1u);
  EXPECT_EQ(fresh_report.applied, 1u);
  EXPECT_EQ(fresh_report.superseded, 0u);
  EXPECT_EQ(propagation.superseded_total(), 1u);
  // Converged: the proxy holds the newest epoch even though the numeric
  // latest (2) acked before 1's bytes ever landed.
  EXPECT_TRUE(propagation.converged());
}

// --- ConfigPropagation wired to a real mesh ---------------------------

// Pushing through a live Istio mesh: the route table lands on each
// sidecar only at that sidecar's delivery time — never at issue time —
// and mid-rollout the fleet genuinely disagrees (skew == 1).
TEST(ConfigPropagation, MeshConfigAppliesOnlyAtDelivery) {
  sim::EventLoop loop;
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(1), sim::Rng(7));
  cluster.add_node(static_cast<net::AzId>(0), 8);
  cluster.add_node(static_cast<net::AzId>(0), 8);
  k8s::Service& service = cluster.add_service("s");
  for (int i = 0; i < 4; ++i) {
    cluster.add_pod(service, k8s::AppProfile{})
        .set_phase(k8s::PodPhase::kRunning);
  }
  mesh::IstioMesh istio(loop, cluster, mesh::IstioMesh::Config{},
                        sim::Rng(8));
  istio.install();

  ConfigPropagation propagation(loop, ControlPlaneProfile{});
  std::vector<sim::TimePoint> apply_times;
  std::uint64_t mid_rollout_skew = 0;
  const sim::TimePoint issued = loop.now();
  auto targets = istio.config_epoch_targets([&](proxy::ProxyEngine& engine) {
    apply_times.push_back(loop.now());
    mid_rollout_skew = std::max(mid_rollout_skew, propagation.epoch_skew());
    http::RouteTable table;
    http::RouteRule rule;
    rule.name = "pushed";
    rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
    rule.match.path = "/api";
    rule.action.direct_response_status = 226;
    table.add_rule(std::move(rule));
    engine.set_route_table(service.id, std::move(table));
  });
  ASSERT_EQ(targets.size(), 4u);  // one sidecar per pod
  propagation.push_epoch(std::move(targets));

  // Nothing lands at issue time: before any delivery the sidecars still
  // run their installed (pre-push) tables.
  loop.run_until(issued + sim::microseconds(100));
  EXPECT_TRUE(apply_times.empty());
  for (const auto& pod : cluster.pods()) {
    const auto* table = istio.sidecar_engine(pod->id())
                            ->route_table(service.id);
    ASSERT_NE(table, nullptr);
    EXPECT_NE(table->rules().front().name, "pushed");
  }

  loop.run();
  ASSERT_EQ(apply_times.size(), 4u);
  for (std::size_t i = 0; i < apply_times.size(); ++i) {
    EXPECT_GT(apply_times[i], issued);  // nonzero propagation delay
    if (i > 0) {
      EXPECT_GT(apply_times[i], apply_times[i - 1]);  // FIFO
    }
  }
  EXPECT_EQ(mid_rollout_skew, 1u);  // fleet disagreed mid-rollout
  EXPECT_TRUE(propagation.converged());
  for (const auto& pod : cluster.pods()) {
    const auto* table = istio.sidecar_engine(pod->id())
                            ->route_table(service.id);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->rules().front().name, "pushed");
  }
}

// --- Cert rotation ----------------------------------------------------

struct RotationRun {
  crypto::RotationReport report;
  std::uint64_t batches = 0;
  std::vector<std::string> issued_order;
};

RotationRun run_rotation(std::uint64_t seed) {
  sim::EventLoop loop;
  sim::Rng rng(seed);
  sim::CpuSet cpu(loop, 4);
  crypto::AsymmetricAccelerator accel(loop, cpu,
                                      crypto::AccelMode::kBatched);
  crypto::CertificateAuthority ca("test-ca", rng);
  std::vector<std::string> identities;
  for (int i = 0; i < 12; ++i) {
    identities.push_back("spiffe://tenant-1/ns/default/sa/pod-" +
                         std::to_string(i));
  }
  crypto::CertRotationWave wave(loop, ca);
  RotationRun run;
  wave.run(
      identities, accel, rng,
      [&run](const crypto::Certificate& cert) {
        run.issued_order.push_back(cert.identity);
      },
      [&run](crypto::RotationReport report) { run.report = report; });
  loop.run();
  run.batches = accel.batches_flushed();
  return run;
}

// Identical seeds reproduce the exact rotation schedule — report,
// batching, and per-cert issue order — on fresh worlds. This is the
// property the campaign's --jobs invariance rests on: a wave's outcome
// is a pure function of (identities, seed), never of scheduling.
TEST(CertRotationWave, DeterministicScheduleAcrossRuns) {
  const RotationRun a = run_rotation(42);
  const RotationRun b = run_rotation(42);
  EXPECT_EQ(a.report.rotated, 12u);
  EXPECT_EQ(a.report.rotated, b.report.rotated);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.cert_bytes, b.report.cert_bytes);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.issued_order, b.issued_order);
  // Staggered submissions below the flush timeout keep batches full-ish:
  // 12 ops through an 8-slot engine is at least two flushes.
  EXPECT_GE(a.batches, 2u);
}

TEST(CertRotationWave, EmptyIdentityListCompletes) {
  sim::EventLoop loop;
  sim::Rng rng(1);
  sim::CpuSet cpu(loop, 4);
  crypto::AsymmetricAccelerator accel(loop, cpu,
                                      crypto::AccelMode::kBatched);
  crypto::CertificateAuthority ca("test-ca", rng);
  crypto::CertRotationWave wave(loop, ca);
  bool finished = false;
  wave.run({}, accel, rng, nullptr, [&](crypto::RotationReport report) {
    finished = true;
    EXPECT_EQ(report.rotated, 0u);
    EXPECT_EQ(report.cert_bytes, 0u);
  });
  loop.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(accel.completed(), 0u);
}

// --- Offline cost model ------------------------------------------------

TEST(MeasurePush, MatchesWiredPathPlusApplyTax) {
  ControlPlaneProfile profile;
  profile.southbound_bandwidth_bps = 100'000'000;
  const OfflinePush push =
      measure_push(profile, {{"a", 10'000}, {"b", 20'000}});
  // Same physics as ConvergenceMatchesHandComputedCosts (3410 us to last
  // delivery), plus ceil(2/8) = 1 apply round trip.
  EXPECT_EQ(push.report.build_time, sim::microseconds(510));
  EXPECT_EQ(push.report.total_time, sim::microseconds(3410));
  EXPECT_EQ(push.completion,
            sim::microseconds(3410) + sim::milliseconds(25));
}

}  // namespace
}  // namespace canal::k8s
