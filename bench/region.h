// Region-scale testbed: many AZ-sized clusters on one sim::ShardedSim.
//
// The paper's headline results are region-scale — thousands of VMs and
// millions of RPS — which a single event loop cannot reach in reasonable
// wall-clock. This harness instantiates one self-contained Testbed per AZ
// (its own cluster, canal gateway, key server), hosts each AZ as a
// ShardedSim domain, and drives pinned-flow open-loop load per AZ. A
// cross-AZ slice of the load crosses domains through net::ShardChannel, so
// it is mailbox traffic regardless of `shards` — the property that makes
// every result byte-identical at any shard count (DESIGN.md §15).
//
// Determinism inventory for the emitted metrics:
//   - per-AZ counters and histograms evolve on the AZ's own loop, merged
//     into region aggregates in AZ order on the coordinator thread;
//   - the engine counters (events, rounds, cross_shard_messages) count
//     cross-*domain* traffic and windows, both partition-invariant;
//   - the lookahead is computed from the full AZ latency matrix with an
//     identity partition (every AZ its own shard), NOT from the current
//     partition, so the window schedule cannot vary with --shards;
//   - wall-clock readings (and the shard/thread counts that shape them)
//     are machine-dependent and live under the "wall." metric prefix.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "canal/population.h"
#include "k8s/region.h"
#include "net/shard_link.h"
#include "sim/shard.h"
#include "sim/stats.h"

namespace canal::bench {

struct RegionOptions {
  std::size_t azs = 8;
  std::size_t nodes_per_az = 140;  // 8 x 140 = 1120 VMs
  std::size_t services_per_az = 16;
  std::size_t pods_per_service = 12;
  std::size_t node_cores = 8;
  sim::Duration app_service_time = sim::microseconds(500);
  /// Canal gateway sizing per AZ; the §5.1 defaults saturate two orders
  /// of magnitude below the region point, so region AZs run wider: 2
  /// replicas of 4 cores per backend, and a shuffle-shard width of 4. The
  /// §5.1 width of 2 leaves single backend pairs carrying multi-service
  /// hotspots at region load; 4 of 8 keeps the worst draw under capacity.
  std::size_t gateway_backends = 8;
  core::GatewayConfig gateway = [] {
    core::GatewayConfig config;
    config.replicas_per_backend = 2;
    config.replica_cores = 4;
    config.backends_per_service_local = 4;
    return config;
  }();
  double aggregate_rps = 1'000'000.0;
  sim::Duration duration = sim::milliseconds(300);
  /// Fraction of each AZ's generators that target a remote AZ.
  double cross_az_fraction = 0.15;
  std::size_t generators_per_az = 64;
  /// Table 3 tenant population size; generators are assigned tenants
  /// proportionally to tenant pod counts.
  std::size_t tenants = 200;
  std::size_t shards = 1;
  std::uint64_t seed = 1;
};

/// One region run's results, split by determinism class (see file header).
struct RegionRun {
  // Deterministic: golden material.
  std::uint64_t vms = 0;
  std::uint64_t pods = 0;
  std::uint64_t tenants = 0;
  core::RegionAdoption adoption;  // Table 3 row for the generated tenants
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  sim::Histogram intra_latency_us;
  sim::Histogram cross_latency_us;
  sim::Duration lookahead = 0;
  sim::ShardedSim::Stats engine;
  // Machine-dependent: "wall." material.
  double wall_ms = 0.0;
  std::size_t shards = 0;
};

namespace region_detail {

/// Per-AZ result accumulation. Owned by the client AZ: every write happens
/// on that AZ's loop (cross-AZ completions return home through the reverse
/// channel before recording), so shards never share one.
struct AzStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  sim::Histogram intra_latency_us;
  sim::Histogram cross_latency_us;
};

/// A pinned flow: fixed client pod, destination service, tenant, and
/// source port, issuing `count` requests one spacing apart. Pinning keeps
/// the per-request event count at the fastpath steady state (selfperf's
/// ~16 events/request), which is what makes 1M RPS simulable at all.
struct Generator {
  Testbed* src_bed = nullptr;
  mesh::MeshDataplane* src_mesh = nullptr;
  k8s::Pod* client = nullptr;
  net::ServiceId dst_service{};
  net::TenantId tenant{};
  std::uint16_t src_port = 0;
  sim::TimePoint start = 0;
  sim::Duration spacing = 0;
  std::uint64_t count = 0;
  std::uint64_t issued = 0;
  AzStats* stats = nullptr;
  // Cross-AZ only: the request rides forward to the remote AZ, enters its
  // mesh at a pinned ingress pod, and the response rides reverse home.
  net::ShardChannel* forward = nullptr;
  net::ShardChannel* reverse = nullptr;
  Testbed* dst_bed = nullptr;
  mesh::MeshDataplane* dst_mesh = nullptr;
  k8s::Pod* ingress = nullptr;
};

constexpr std::uint32_t kRequestBytes = 256;
constexpr std::uint32_t kResponseBytes = 1024;

inline mesh::RequestOptions pinned_request(const Generator& g,
                                           k8s::Pod* client, bool first) {
  mesh::RequestOptions opts;
  opts.client = client;
  opts.dst_service = g.dst_service;
  opts.tenant = g.tenant;
  opts.path = "/api/region";
  opts.request_bytes = kRequestBytes;
  opts.src_port = g.src_port;
  opts.new_connection = first;  // handshake only on the flow's first use
  opts.close_after = false;
  return opts;
}

/// Issues one request and re-arms the generator. Runs on the client AZ's
/// loop; self-rescheduling keeps outstanding events at one per generator
/// instead of pre-posting the full half-million-request schedule.
inline void fire(Generator& g) {
  const sim::TimePoint sent_at = g.src_bed->loop.now();
  const bool first = g.issued == 0;
  if (g.forward == nullptr) {
    g.src_mesh->send_request(
        pinned_request(g, g.client, first),
        [&g](mesh::RequestResult r) {
          ++g.stats->sent;
          if (r.ok()) ++g.stats->ok;
          g.stats->intra_latency_us.record(sim::to_microseconds(r.latency));
        });
  } else {
    g.forward->deliver(kRequestBytes, [&g, sent_at, first] {
      g.dst_mesh->send_request(
          pinned_request(g, g.ingress, first),
          [&g, sent_at](mesh::RequestResult r) {
            const bool ok = r.ok();
            g.reverse->deliver(kResponseBytes, [&g, sent_at, ok] {
              ++g.stats->sent;
              if (ok) ++g.stats->ok;
              g.stats->cross_latency_us.record(sim::to_microseconds(
                  g.src_bed->loop.now() - sent_at));
            });
          });
    });
  }
  ++g.issued;
  if (g.issued < g.count) {
    g.src_bed->loop.post_at(
        g.start + static_cast<sim::Duration>(g.issued) * g.spacing,
        [&g] { fire(g); });
  }
}

}  // namespace region_detail

/// Builds the region and runs it to completion under `runner` (null =
/// serial rounds). Every deterministic field of the result is byte-stable
/// across `opts.shards` and across runner thread counts.
inline RegionRun run_region(const RegionOptions& opts,
                            sim::ShardRunner* runner = nullptr) {
  using region_detail::AzStats;
  using region_detail::Generator;

  RegionRun run;
  run.shards = opts.shards;

  // -- Partition + lookahead -----------------------------------------------
  const std::vector<std::size_t> partition =
      k8s::partition_region(opts.azs, opts.shards);
  const net::Link cross_link = net::LinkProfiles::cross_az();
  std::vector<std::vector<sim::Duration>> latency(
      opts.azs, std::vector<sim::Duration>(opts.azs, cross_link.latency()));
  // Identity partition => minimum over every AZ pair: partition-invariant.
  std::vector<std::size_t> identity(opts.azs);
  for (std::size_t a = 0; a < opts.azs; ++a) identity[a] = a;
  run.lookahead = opts.azs > 1
                      ? k8s::cross_shard_lookahead(latency, identity)
                      : cross_link.latency();
  // Also validate the partition actually in use (rejects any zero-latency
  // pair split across shards; a no-op for this all-cross_az matrix).
  (void)k8s::cross_shard_lookahead(latency, partition);

  sim::ShardedSim sim(partition, run.lookahead);

  // -- Per-AZ testbeds ------------------------------------------------------
  std::vector<std::unique_ptr<Testbed>> beds;
  beds.reserve(opts.azs);
  for (std::size_t az = 0; az < opts.azs; ++az) {
    Testbed::Options bed_opts;
    bed_opts.nodes = opts.nodes_per_az;
    bed_opts.services = opts.services_per_az;
    bed_opts.pods_per_service = opts.pods_per_service;
    bed_opts.node_cores = opts.node_cores;
    bed_opts.app_service_time = opts.app_service_time;
    bed_opts.gateway_backends = opts.gateway_backends;
    bed_opts.gateway = opts.gateway;
    bed_opts.seed = opts.seed * 9973 + az;
    beds.push_back(
        std::make_unique<Testbed>(sim.domain_loop(az), bed_opts));
    beds.back()->build_canal();
  }
  run.vms = opts.azs * opts.nodes_per_az;
  run.pods = opts.azs * opts.services_per_az * opts.pods_per_service;

  // -- Table 3 tenant population -------------------------------------------
  core::RegionProfile profile;
  profile.name = "region";
  profile.tenants = opts.tenants;
  core::PopulationGenerator population(sim::Rng(opts.seed * 7919 + 13));
  const std::vector<core::TenantProfile> tenants =
      population.generate(profile);
  run.tenants = tenants.size();
  run.adoption = core::PopulationGenerator::summarize(profile.name, tenants);
  // Pod-weighted tenant assignment: big tenants carry proportionally more
  // of the region's load, matching the survey's skew.
  std::vector<std::uint64_t> cumulative_pods;
  cumulative_pods.reserve(tenants.size());
  std::uint64_t total_pods = 0;
  for (const auto& tenant : tenants) {
    total_pods += tenant.pods > 0 ? tenant.pods : 1;
    cumulative_pods.push_back(total_pods);
  }
  sim::Rng assign_rng(opts.seed * 6271 + 29);
  const auto pick_tenant = [&]() -> net::TenantId {
    const auto target = static_cast<std::uint64_t>(assign_rng.uniform_int(
        1, static_cast<std::int64_t>(total_pods)));
    std::size_t lo = 0;
    std::size_t hi = cumulative_pods.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cumulative_pods[mid] >= target) hi = mid;
      else lo = mid + 1;
    }
    return static_cast<net::TenantId>(tenants[lo].id);
  };

  // -- Channels + generators ------------------------------------------------
  std::vector<std::vector<std::unique_ptr<net::ShardChannel>>> channels(
      opts.azs);
  for (std::size_t a = 0; a < opts.azs; ++a) {
    channels[a].resize(opts.azs);
    for (std::size_t b = 0; b < opts.azs; ++b) {
      if (a == b) continue;
      channels[a][b] =
          std::make_unique<net::ShardChannel>(sim, a, b, cross_link);
    }
  }

  std::vector<AzStats> az_stats(opts.azs);
  const double per_generator_rps =
      opts.aggregate_rps / static_cast<double>(opts.azs) /
      static_cast<double>(opts.generators_per_az);
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) / per_generator_rps);
  const auto per_generator_count = static_cast<std::uint64_t>(
      sim::to_seconds(opts.duration) * per_generator_rps);
  const auto cross_generators = static_cast<std::size_t>(
      static_cast<double>(opts.generators_per_az) * opts.cross_az_fraction);

  std::vector<Generator> generators;
  generators.reserve(opts.azs * opts.generators_per_az);
  for (std::size_t az = 0; az < opts.azs; ++az) {
    Testbed& bed = *beds[az];
    const std::size_t services = bed.services.size();
    az_stats[az].intra_latency_us.reserve(
        (opts.generators_per_az - cross_generators) * per_generator_count);
    az_stats[az].cross_latency_us.reserve(cross_generators *
                                          per_generator_count);
    for (std::size_t i = 0; i < opts.generators_per_az; ++i) {
      Generator g;
      g.src_bed = &bed;
      g.src_mesh = bed.canal.get();
      // Spread clients over every service's pod list; target the service
      // "across" the ring so a pod never calls its own service.
      k8s::Service& client_service = *bed.services[i % services];
      g.client = client_service.endpoints[(i / services) %
                                          client_service.endpoints.size()];
      g.tenant = pick_tenant();
      g.src_port = static_cast<std::uint16_t>(40'000 + i);
      g.spacing = spacing;
      g.count = per_generator_count;
      // Stagger flows across one spacing so the AZ's aggregate arrival
      // process is smooth instead of one burst per spacing.
      g.start = static_cast<sim::Duration>(i) * spacing /
                static_cast<sim::Duration>(opts.generators_per_az);
      g.stats = &az_stats[az];
      if (i < cross_generators && opts.azs > 1) {
        const std::size_t dst_az = (az + 1 + i % (opts.azs - 1)) % opts.azs;
        Testbed& dst = *beds[dst_az];
        g.forward = channels[az][dst_az].get();
        g.reverse = channels[dst_az][az].get();
        g.dst_bed = &dst;
        g.dst_mesh = dst.canal.get();
        k8s::Service& ingress_service = *dst.services[i % services];
        g.ingress = ingress_service.endpoints[(i / services) %
                                              ingress_service.endpoints
                                                  .size()];
        g.dst_service = dst.services[(i + services / 2) % services]->id;
      } else {
        g.dst_service = bed.services[(i + services / 2) % services]->id;
      }
      generators.push_back(g);
    }
  }
  for (Generator& g : generators) {
    if (g.count == 0) continue;
    g.src_bed->loop.post_at(g.start, [&g] { region_detail::fire(g); });
  }

  // -- Run -----------------------------------------------------------------
  const auto wall_start = std::chrono::steady_clock::now();
  run.engine = sim.run(runner);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();

  // -- Reduce (AZ order: deterministic) ------------------------------------
  for (const AzStats& stats : az_stats) {
    run.sent += stats.sent;
    run.ok += stats.ok;
    for (const double v : stats.intra_latency_us.samples()) {
      run.intra_latency_us.record(v);
    }
    for (const double v : stats.cross_latency_us.samples()) {
      run.cross_latency_us.record(v);
    }
  }
  return run;
}

}  // namespace canal::bench
