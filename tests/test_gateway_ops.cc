// Operational-surface tests for the gateway: graceful replica drains with
// live traffic, migration controllers under edge conditions, anomaly
// responder dispatch paths, HWHM target selection and the long-session
// tie-break at unit level, and the controller/southbound interplay under
// constrained bandwidth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>

#include "canal/canal_mesh.h"
#include "canal/inphase_migration.h"
#include "canal/intervention.h"
#include "canal/scaling.h"

namespace canal::core {
namespace {

struct OpsWorld {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(1), sim::Rng(4001)};
  MeshGateway gateway;
  std::unique_ptr<CanalMesh> mesh;
  k8s::Service* api = nullptr;
  k8s::Pod* client = nullptr;

  explicit OpsWorld(const GatewayConfig& config = {})
      : gateway(loop, config, sim::Rng(4003)) {
    gateway.add_az(4);
    cluster.add_node(static_cast<net::AzId>(0), 16);
    api = &cluster.add_service("api");
    k8s::AppProfile profile;
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = sim::milliseconds(1);
    profile.sigma = 0.05;
    for (int i = 0; i < 3; ++i) {
      cluster.add_pod(*api, profile).set_phase(k8s::PodPhase::kRunning);
    }
    k8s::Service& web = cluster.add_service("web");
    client = &cluster.add_pod(web, profile);
    client->set_phase(k8s::PodPhase::kRunning);
    mesh = std::make_unique<CanalMesh>(loop, cluster, gateway,
                                       CanalMesh::Config{}, sim::Rng(4007));
    mesh->install();
  }

  int run_requests(int n, bool keep_open = false) {
    int ok = 0;
    for (int i = 0; i < n; ++i) {
      mesh::RequestOptions opts;
      opts.client = client;
      opts.dst_service = api->id;
      opts.close_after = !keep_open;
      mesh->send_request(opts, [&](mesh::RequestResult r) {
        if (r.ok()) ++ok;
      });
    }
    loop.run();
    return ok;
  }
};

TEST(GatewayOps, GracefulDrainKeepsServingThroughRollingRestart) {
  OpsWorld world;
  GatewayBackend* backend =
      world.gateway.resolve(world.api->id, static_cast<net::AzId>(0));
  ASSERT_NE(backend, nullptr);
  // Rolling restart: drain each replica, serve traffic, recover it.
  for (std::size_t r = 0; r < backend->replica_count(); ++r) {
    backend->drain_replica(backend->replica(r)->id());
    EXPECT_EQ(world.run_requests(10), 10)
        << "traffic lost while draining replica " << r;
    backend->recover_replica(backend->replica(r)->id());
  }
  EXPECT_EQ(world.run_requests(10), 10);
}

TEST(GatewayOps, DrainedReplicaReceivesNoNewFlows) {
  OpsWorld world;
  GatewayBackend* backend =
      world.gateway.resolve(world.api->id, static_cast<net::AzId>(0));
  GatewayReplica* draining = backend->replica(0);
  const std::uint64_t before = draining->engine().requests_total();
  backend->drain_replica(draining->id());
  world.run_requests(40);
  EXPECT_EQ(draining->engine().requests_total(), before)
      << "drained replica processed new flows";
}

TEST(GatewayOps, SessionsSurviveOnEngineWhenKeptOpen) {
  OpsWorld world;
  world.run_requests(10, /*keep_open=*/true);
  GatewayBackend* backend =
      world.gateway.resolve(world.api->id, static_cast<net::AzId>(0));
  std::size_t sessions = 0;
  for (std::size_t r = 0; r < backend->replica_count(); ++r) {
    sessions += backend->replica(r)->engine().sessions().size();
  }
  EXPECT_GT(sessions, 0u);
}

TEST(MigrationOps, LosslessWithNoSessionsCompletesImmediately) {
  OpsWorld world;
  MigrationController migrations(world.loop, world.gateway);
  migrations.migrate_lossless(world.api->id, static_cast<net::AzId>(0));
  world.loop.run_until(world.loop.now() + sim::seconds(1));
  EXPECT_EQ(migrations.in_progress(), 0u);
  ASSERT_TRUE(migrations.records().front().completed.has_value());
}

TEST(MigrationOps, LossyOnServiceWithNoSessionsIsSafe) {
  OpsWorld world;
  MigrationController migrations(world.loop, world.gateway);
  migrations.migrate_lossy(world.api->id, static_cast<net::AzId>(0));
  world.loop.run_until(world.loop.now() + sim::seconds(5));
  EXPECT_EQ(migrations.records().front().sessions_reset, 0u);
  // Service still works from the sandbox.
  EXPECT_EQ(world.run_requests(5), 5);
}

TEST(MigrationOps, SandboxIsReusedPerAz) {
  OpsWorld world;
  GatewayBackend* box1 = world.gateway.sandbox(static_cast<net::AzId>(0));
  GatewayBackend* box2 = world.gateway.sandbox(static_cast<net::AzId>(0));
  EXPECT_EQ(box1, box2);
  EXPECT_TRUE(box1->is_sandbox());
  // Sandboxes are excluded from the shuffle-shard pool.
  const auto& pool = world.gateway.assigner(static_cast<net::AzId>(0)).pool();
  EXPECT_EQ(std::find(pool.begin(), pool.end(), box1->id()), pool.end());
}

TEST(GatewayOps, FindBackendResolvesEveryIdAndMissesTheRest) {
  sim::EventLoop loop;
  MeshGateway gateway(loop, GatewayConfig{}, sim::Rng(4011));
  const net::AzId az0 = gateway.add_az(2);
  const net::AzId az1 = gateway.add_az(3);
  // A sandbox and a late backend interleave ids across the two AZs.
  GatewayBackend* sandbox = gateway.sandbox(az0);
  GatewayBackend& late = gateway.add_backend(az1);
  const auto all = gateway.all_backends();
  ASSERT_EQ(all.size(), 7u);
  for (GatewayBackend* backend : all) {
    EXPECT_EQ(gateway.find_backend(backend->id()), backend);
  }
  EXPECT_EQ(gateway.find_backend(sandbox->id()), sandbox);
  EXPECT_TRUE(gateway.find_backend(sandbox->id())->is_sandbox());
  EXPECT_EQ(gateway.find_backend(late.id())->az(), az1);
  EXPECT_EQ(gateway.find_backend(static_cast<net::BackendId>(0)), nullptr);
  EXPECT_EQ(gateway.find_backend(static_cast<net::BackendId>(8)), nullptr);
  EXPECT_EQ(gateway.find_backend(static_cast<net::BackendId>(0xFFFFFFFFu)),
            nullptr);
}

TEST(ResponderOps, NormalGrowthDispatchesToScaler) {
  OpsWorld world;
  for (auto* backend : world.gateway.all_backends()) {
    backend->start_sampling(sim::seconds(1));
  }
  ScalerConfig scaler_config;
  scaler_config.alert_threshold = 0.6;
  PreciseScaler scaler(world.loop, world.gateway, scaler_config,
                       sim::Rng(4013));
  MigrationController migrations(world.loop, world.gateway);
  ResponderConfig responder_config;
  responder_config.alert_threshold = 0.6;
  AnomalyResponder responder(world.loop, world.gateway, scaler, migrations,
                             responder_config);

  GatewayBackend* backend = world.gateway.placement_of(world.api->id).front();
  // Quiet baseline, then proportionate growth (RPS and CPU together).
  for (int t = 0; t < 5; ++t) {
    world.loop.run_until(world.loop.now() + sim::seconds(1));
    backend->inject_load(world.api->id, 2000.0, sim::seconds(1));
    responder.check_now();
  }
  for (int t = 0; t < 3; ++t) {
    world.loop.run_until(world.loop.now() + sim::seconds(1));
    backend->inject_load(world.api->id, 40000.0, sim::seconds(1));
  }
  // Let the injected work actually occupy the cores before sampling.
  world.loop.run_until(world.loop.now() + sim::seconds(2));
  responder.check_now();
  world.loop.run_until(world.loop.now() + sim::minutes(2));

  bool scaled = false;
  for (const auto& event : responder.events()) {
    if (event.action == "precise-scaling") scaled = true;
    EXPECT_NE(event.action, "lossy-migration");  // growth, not an attack
  }
  EXPECT_TRUE(scaled);
  EXPECT_GE(scaler.events().size(), 1u);
  EXPECT_EQ(migrations.records().size(), 0u);
}

TEST(HwhmSelection, PrefersComplementaryBackend) {
  OpsWorld world;
  for (auto* backend : world.gateway.all_backends()) {
    backend->start_sampling(sim::minutes(10));
  }
  GatewayBackend* source = world.gateway.placement_of(world.api->id).front();

  // Identify two non-hosting candidates; give one a pattern in phase with
  // the service and the other an anti-phase pattern.
  std::vector<GatewayBackend*> candidates;
  for (auto* backend : world.gateway.all_backends()) {
    if (backend != source && !backend->hosts(world.api->id)) {
      candidates.push_back(backend);
    }
  }
  ASSERT_GE(candidates.size(), 2u);
  GatewayBackend* in_phase_candidate = candidates[0];
  GatewayBackend* anti_phase_candidate = candidates[1];
  // Stop extra candidates from competing (pin them to high constant load).
  for (std::size_t i = 2; i < candidates.size(); ++i) {
    for (int hour = 0; hour < 30; ++hour) {
      candidates[i]->inject_load(
          static_cast<net::ServiceId>(0xBEEF), 50000.0, sim::hours(1));
    }
  }

  k8s::Service& filler = world.cluster.add_service("filler");
  world.mesh->install();
  for (int hour = 0; hour < 30; ++hour) {
    const double phase = std::sin((hour % 24 - 6) / 24.0 * 6.28318);
    const double rps = std::max(100.0, 8000.0 * (1 + 0.9 * phase));
    source->inject_load(world.api->id, rps, sim::hours(1));
    in_phase_candidate->inject_load(filler.id, rps, sim::hours(1));
    // Anti-phase AND lighter overall: both the G (complementary HWHM
    // samples) and G' (24h total) criteria point at this candidate.
    anti_phase_candidate->inject_load(
        filler.id, std::max(100.0, 6000.0 * (1 - 0.9 * phase)),
        sim::hours(1));
    world.loop.run_until(world.loop.now() + sim::hours(1));
  }

  InPhaseMigrationPlanner planner;
  GatewayBackend* target = planner.select_target(
      world.gateway, *source, world.api->id, world.loop.now());
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target, anti_phase_candidate)
      << "selected backend " << net::id_value(target->id());
}

TEST(InPhaseSelection, LongSessionGaugeIsExactWithSamplingOff) {
  OpsWorld world;
  k8s::Service& batch = world.cluster.add_service("batch");
  world.mesh->install();
  GatewayBackend* backend = world.gateway.placement_of(world.api->id).front();
  world.gateway.extend_service(batch.id, *backend);
  // The lower id holds more long-lived sessions, so ranking by the gauge
  // and ranking by id disagree.
  const bool api_first =
      net::id_value(world.api->id) < net::id_value(batch.id);
  const net::ServiceId more = api_first ? world.api->id : batch.id;
  const net::ServiceId fewer = api_first ? batch.id : world.api->id;
  const auto tuple_of = [](std::uint16_t port) {
    return net::FiveTuple{net::Ipv4Addr(10, 9, 0, 1),
                          net::Ipv4Addr(10, 9, 1, 1), port, 443,
                          net::Protocol::kTcp};
  };
  proxy::SessionTable& first = backend->replica(0)->engine().sessions();
  proxy::SessionTable& second = backend->replica(1)->engine().sessions();
  ASSERT_TRUE(first.insert(tuple_of(1), more, world.loop.now()));
  ASSERT_TRUE(second.insert(tuple_of(2), more, world.loop.now()));
  ASSERT_TRUE(first.insert(tuple_of(3), fewer, world.loop.now()));
  world.loop.run_until(world.loop.now() + sim::minutes(2));
  ASSERT_TRUE(second.insert(tuple_of(4), fewer, world.loop.now()));

  for (const net::ServiceId service : {more, fewer}) {
    std::size_t summed = 0;
    for (std::size_t r = 0; r < backend->replica_count(); ++r) {
      summed += backend->replica(r)->engine().sessions().count_older_than(
          service, world.loop.now(), sim::minutes(1));
    }
    EXPECT_EQ(backend->long_sessions(service), summed);
  }
  EXPECT_EQ(backend->long_sessions(more), 2u);
  EXPECT_EQ(backend->long_sessions(fewer), 1u);  // tuple 4 is too young

  // No traffic: equal (zero) weighted RPS, so the gauge breaks the tie.
  InPhaseMigrationPlanner planner;
  const auto ranked =
      planner.select_services(*backend, {{more, fewer}}, world.loop.now());
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked.front(), fewer);
  EXPECT_EQ(ranked.back(), more);
}

// --- the sampling grid against the tick it replaced -------------------

/// The periodic sampling tick GatewayBackend used to run, replayed as a
/// reference: every `period` it records cpu_utilization(5 s) into a
/// TimeSeries, which value_at() then reads.
struct TickReference {
  TickReference(sim::EventLoop& loop, GatewayBackend& backend)
      : loop(loop), backend(backend) {}

  void start(sim::Duration period) {
    timer = std::make_unique<sim::PeriodicTimer>(loop, period, [this] {
      series.record(loop.now(), backend.cpu_utilization(sim::seconds(5)));
    });
    timer->start(period);
  }
  void stop() {
    if (timer) timer->stop();
  }

  sim::EventLoop& loop;
  GatewayBackend& backend;
  sim::TimeSeries series{sim::hours(25)};
  std::unique_ptr<sim::PeriodicTimer> timer;
};

TEST(SamplingGrid, LoadAtReplaysTheSamplingTick) {
  // Random aggregate load, requests, and sampling starts, stops and
  // restarts with varying periods: wherever the tick's 5 s window is still
  // inside the CPU history, load_at() returns the tick's value bit for bit.
  OpsWorld world;
  const std::vector<GatewayBackend*> backends = world.gateway.all_backends();
  std::vector<std::unique_ptr<TickReference>> refs;
  for (GatewayBackend* backend : backends) {
    refs.push_back(std::make_unique<TickReference>(world.loop, *backend));
  }
  const sim::Duration periods[] = {sim::milliseconds(250), sim::seconds(1),
                                   sim::seconds(3), sim::seconds(7)};
  sim::Rng rng(4021);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t compared = 0;
  std::size_t sampled = 0;
  for (int step = 0; step < 800; ++step) {
    const double action = rng.uniform();
    const std::size_t b = pick(backends.size());
    if (action < 0.08) {
      if (refs[b]->timer && refs[b]->timer->running() &&
          rng.uniform() < 0.5) {
        backends[b]->stop_sampling();
        refs[b]->stop();
      } else {
        const sim::Duration period = periods[pick(std::size(periods))];
        backends[b]->start_sampling(period);
        refs[b]->start(period);
      }
    } else if (action < 0.5) {
      backends[b]->inject_load(world.api->id, rng.uniform(0.0, 20000.0),
                               rng.uniform_int(sim::milliseconds(200),
                                               sim::seconds(8)));
    } else if (action < 0.7) {
      mesh::RequestOptions opts;
      opts.client = world.client;
      opts.dst_service = world.api->id;
      opts.new_connection = rng.uniform() < 0.5;
      world.mesh->send_request(opts, [](mesh::RequestResult) {});
    }
    world.loop.run_until(world.loop.now() +
                         rng.uniform_int(sim::milliseconds(1),
                                         sim::seconds(4)));
    const sim::TimePoint now = world.loop.now();
    for (std::size_t i = 0; i < backends.size(); ++i) {
      for (int q = 0; q < 3; ++q) {
        const sim::TimePoint t = now - rng.uniform_int(0, sim::seconds(70));
        const auto& samples = refs[i]->series.samples();
        const auto after = std::partition_point(
            samples.begin(), samples.end(),
            [t](const sim::TimeSeries::Sample& s) { return s.t <= t; });
        if (after != samples.begin()) {
          // Only windows the 5 min history still covers are exact.
          const sim::TimePoint point = std::prev(after)->t;
          if (point - sim::seconds(5) <
              now - sim::CpuCore::kDefaultHistory) {
            continue;
          }
          ++sampled;
        }
        ASSERT_EQ(backends[i]->load_at(t),
                  refs[i]->series.value_at(t).value_or(0.0))
            << "backend " << i << " at " << t << ", now " << now;
        ++compared;
      }
    }
  }
  EXPECT_GT(world.loop.now(), 3 * sim::CpuCore::kDefaultHistory);
  EXPECT_GT(sampled, 2000u);
  EXPECT_GT(compared, sampled);
}

TEST(SamplingGrid, LoadAtAveragesTheReplicasAliveNow) {
  // The tick averaged the replicas alive at its point; load_at() reads the
  // alive set when it is asked. A crash or revive between the two is the
  // one place they differ.
  OpsWorld world;
  GatewayBackend& backend = *world.gateway.all_backends().front();
  TickReference ref(world.loop, backend);
  backend.start_sampling(sim::seconds(1));
  ref.start(sim::seconds(1));
  backend.replica(0)->cpu().core(0).execute(sim::milliseconds(2500));
  world.loop.run_until(sim::seconds(3) + sim::milliseconds(100));
  const double at_tick = ref.series.value_at(sim::seconds(3)).value();
  EXPECT_GT(at_tick, 0.0);
  EXPECT_EQ(backend.load_at(sim::seconds(3)), at_tick);

  backend.crash_replica(backend.replica(0)->id());
  EXPECT_NE(backend.load_at(sim::seconds(3)), at_tick);
  EXPECT_EQ(backend.load_at(sim::seconds(3)),
            backend.replica(1)->cpu().utilization_between(
                sim::seconds(-2), sim::seconds(3)));
  backend.revive_replica(backend.replica(0)->id());
  EXPECT_EQ(backend.load_at(sim::seconds(3)), at_tick);
}

TEST(SamplingGrid, SessionsExpireAtTheTicksOfAPeriodicSweep) {
  // Two identical worlds run the same random pinned-flow schedule. One
  // samples (expiry by deadline); the other sweeps every replica's table
  // on a PeriodicTimer, as the sampling tick did. Expiry counts and live
  // sessions agree at every 50 ms step, and once the flows go quiet the
  // sampled world's expiry event stops arming.
  GatewayConfig config;
  config.session_idle_timeout = sim::seconds(5);
  for (const sim::Duration period :
       {sim::seconds(1), sim::milliseconds(700)}) {
    OpsWorld sampled(config);
    OpsWorld swept(config);
    const std::size_t events_before = sampled.loop.pending_events();
    for (GatewayBackend* backend : sampled.gateway.all_backends()) {
      backend->start_sampling(period);
    }
    // Every table is empty: nothing waits on the grid.
    EXPECT_EQ(sampled.loop.pending_events(), events_before);

    std::uint64_t swept_expired = 0;
    std::vector<std::unique_ptr<sim::PeriodicTimer>> sweeps;
    for (GatewayBackend* backend : swept.gateway.all_backends()) {
      sweeps.push_back(std::make_unique<sim::PeriodicTimer>(
          swept.loop, period, [&swept, &swept_expired, &config, backend] {
            for (std::size_t r = 0; r < backend->replica_count(); ++r) {
              swept_expired +=
                  backend->replica(r)->engine().sessions().expire_idle(
                      swept.loop.now(), config.session_idle_timeout);
            }
          }));
      sweeps.back()->start(period);
    }

    sim::Rng rng(4027);
    const sim::TimePoint quiet = sim::minutes(2);
    for (std::uint16_t flow = 0; flow < 8; ++flow) {
      sim::TimePoint at = rng.uniform_int(0, sim::seconds(3));
      for (bool first = true; at < quiet; first = false) {
        const sim::Duration gap = rng.uniform_int(sim::seconds(1),
                                                  sim::seconds(12));
        const bool fresh = first || rng.uniform() < 0.3;
        for (OpsWorld* world : {&sampled, &swept}) {
          mesh::RequestOptions opts;
          opts.client = world->client;
          opts.dst_service = world->api->id;
          opts.src_port = static_cast<std::uint16_t>(30'000 + flow);
          opts.close_after = false;
          opts.new_connection = fresh;
          world->loop.post_at(at, [world, opts] {
            world->mesh->send_request(opts, [](mesh::RequestResult) {});
          });
        }
        at += gap;
      }
    }

    const auto live = [](OpsWorld& world) {
      std::size_t n = 0;
      for (GatewayBackend* backend : world.gateway.all_backends()) {
        for (std::size_t r = 0; r < backend->replica_count(); ++r) {
          n += backend->replica(r)->engine().sessions().size();
        }
      }
      return n;
    };
    std::uint64_t sampled_expired = 0;
    for (sim::TimePoint t = 0; t <= quiet + sim::seconds(30);
         t += sim::milliseconds(50)) {
      sampled.loop.run_until(t);
      swept.loop.run_until(t);
      sampled_expired = 0;
      for (GatewayBackend* backend : sampled.gateway.all_backends()) {
        sampled_expired += backend->sessions_expired();
      }
      ASSERT_EQ(sampled_expired, swept_expired) << "at " << t;
      ASSERT_EQ(live(sampled), live(swept)) << "at " << t;
    }
    EXPECT_GT(sampled_expired, 10u);
    EXPECT_EQ(live(sampled), 0u);
    // All tables empty again: no expiry event is left waiting.
    EXPECT_EQ(sampled.loop.pending_events(), events_before);
  }
}

TEST(ControllerOps, ConstrainedSouthbandSerializesPushes) {
  sim::EventLoop loop;
  k8s::SouthboundChannel southbound(loop, 1'000'000, 0);  // 1 Mbps VPN
  k8s::Controller controller(loop, 8, southbound);
  // Two updates race: the second waits for the first's bytes.
  sim::TimePoint first_done = 0, second_done = 0;
  controller.push_update({{"a", 125'000}},  // 1 second at 1 Mbps
                         [&](k8s::PushReport) { first_done = loop.now(); });
  controller.push_update({{"b", 125'000}},
                         [&](k8s::PushReport) { second_done = loop.now(); });
  loop.run();
  EXPECT_GE(second_done - first_done, sim::milliseconds(900));
}

TEST(ControllerOps, PeakBandwidthReflectsBurst) {
  sim::EventLoop loop;
  k8s::SouthboundChannel southbound(loop, 100'000'000, 0);
  k8s::Controller controller(loop, 8, southbound);
  controller.push_update(
      std::vector<k8s::ConfigTarget>(50, {"sidecar", 100'000}),
      [](k8s::PushReport) {});
  loop.run();
  // 5 MB burst over a 100 Mbps pipe moves in ~0.4 s: the 1 s-window peak
  // occupancy reads ~40 Mbps (the §2.1 VPN saturation story at burst
  // scale).
  EXPECT_GT(southbound.peak_bps(), 3.9e7);
}

}  // namespace
}  // namespace canal::core
