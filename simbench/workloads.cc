#include "workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "canal/population.h"
#include "crypto/chacha20.h"
#include "crypto/keyexchange.h"
#include "crypto/mac.h"
#include "http/parser.h"
#include "k8s/propagation.h"
#include "k8s/region.h"
#include "lb/bucket_table.h"
#include "net/flow.h"
#include "proxy/session_table.h"
#include "runner/shard_exec.h"
#include "sim/alloc_hook.h"
#include "sim/shard.h"
#include "sim/stats.h"

namespace simbench {

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"planes_steady",
       "five dataplanes back to back on established pinned flows: the "
       "fastpath hot path, no handshakes, timers or shards"},
      {"conn_churn",
       "canal with a fresh mTLS connection per request and a config epoch "
       "every 50 ms: the miss path, handshakes, session insert/remove"},
      {"idle_sessions",
       "one canal AZ with 1 s gateway sampling over hours of a trickle on "
       "3000 idle pinned flows: housekeeping cost scales with sessions"},
      {"region_sharded",
       "8 AZs, 1120 VMs, 200 tenants, 1M RPS on sim::ShardedSim: shard "
       "rounds, mailboxes, barriers and the large set-up"},
  };
  return specs;
}

bool known_workload(std::string_view name) {
  for (const auto& spec : workload_specs()) {
    if (spec.name == name) return true;
  }
  return false;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.allocs_per_request", "count"},
      {"sim.cpu_jobs", "count"},
      {"sim.utilization_ns", "ns"},
      {"sim.shard_rounds", "count"},
      {"sim.shard_messages", "count"},
      {"sim.shard_busy_max_ms", "ms"},
      {"sim.shard_busy_sum_ms", "ms"},
      {"sim.shard_critical_path_ms", "ms"},
      {"sim.barrier_wait_ms", "ms"},
      {"sim.round_us_p50", "us"},
      {"sim.round_us_p90", "us"},
      {"runner.run_round_empty_us", "us"},
      {"mesh.nomesh.drain_ms", "ms"},
      {"mesh.istio.drain_ms", "ms"},
      {"mesh.ambient.drain_ms", "ms"},
      {"mesh.canal.drain_ms", "ms"},
      {"mesh.proxyless.drain_ms", "ms"},
      {"mesh.requests", "count"},
      {"mesh.error_rate", "ratio"},
      {"proxy.fastpath_hits", "count"},
      {"proxy.fastpath_misses", "count"},
      {"proxy.fastpath_hit_rate", "ratio"},
      {"proxy.handshakes", "count"},
      {"proxy.sessions_live", "count"},
      {"proxy.session_touch_ns", "ns"},
      {"canal.gw_fastpath_hits", "count"},
      {"canal.gw_fastpath_misses", "count"},
      {"canal.gw_fastpath_hit_rate", "ratio"},
      {"canal.gw_session_occupancy", "ratio"},
      {"crypto.keyserver_served", "count"},
      {"crypto.keyserver_rejected", "count"},
      {"crypto.remote_signs", "count"},
      {"crypto.fallback_signs", "count"},
      {"crypto.accel_batches", "count"},
      {"crypto.sign_ns", "ns"},
      {"crypto.chacha20_ns_per_kb", "ns"},
      {"k8s.config_epochs", "count"},
      {"k8s.config_applies", "count"},
      {"k8s.config_superseded", "count"},
      {"telemetry.timeseries_record_ns", "ns"},
      {"telemetry.hdr_record_ns", "ns"},
      {"http.parse_ns", "ns"},
      {"http.route_resolve_ns", "ns"},
      {"lb.bucket_resolve_ns", "ns"},
      {"net.flow_hash_ns", "ns"},
      {"setup.topology_ms", "ms"},
      {"setup.planes_ms", "ms"},
      {"setup.population_ms", "ms"},
      {"setup.schedule_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

namespace {

// The world never depends on --seed; only the generated inputs do.
constexpr std::uint64_t kWorldSeed = 1;

constexpr std::size_t kSteadyFlows = 64;
constexpr double kSteadyRps = 2000.0;
constexpr double kSteadySeconds = 4.0;

constexpr std::size_t kChurnFlows = 64;
constexpr double kChurnRps = 2000.0;
constexpr double kChurnSeconds = 5.0;
constexpr sim::Duration kEpochPeriod = sim::milliseconds(50);

constexpr std::size_t kIdleFlows = 3000;
constexpr double kIdleRps = 5.0;
constexpr double kIdleHours = 1.0;
constexpr sim::Duration kSamplingPeriod = sim::seconds(1);

// Simulated length of one timed drain segment: about 1 ms of wall each.
constexpr sim::Duration kSteadySegment = sim::milliseconds(100);
constexpr sim::Duration kChurnSegment = sim::milliseconds(50);
constexpr sim::Duration kIdleSegment = sim::seconds(10);

WorldOptions small_world() { return WorldOptions{}; }

WorldOptions idle_world() {
  WorldOptions options;
  options.services = 8;
  options.pods_per_service = 4;
  options.gateway_backends = 8;
  return options;
}

struct RegionShape {
  std::size_t azs = 8;
  std::size_t nodes_per_az = 140;  // 8 x 140 = 1120 VMs
  std::size_t services_per_az = 16;
  std::size_t pods_per_service = 12;
  double aggregate_rps = 1'000'000.0;
  sim::Duration duration = sim::milliseconds(50);
  double cross_az_fraction = 0.15;
  std::size_t generators_per_az = 64;
  std::size_t tenants = 200;

  [[nodiscard]] WorldOptions world(std::size_t az) const {
    WorldOptions options;
    options.nodes = nodes_per_az;
    options.services = services_per_az;
    options.pods_per_service = pods_per_service;
    options.app_service_time = sim::microseconds(500);
    // The §5.1 gateway defaults saturate two orders of magnitude below the
    // region point, so region AZs run wider gateways.
    options.gateway_backends = 8;
    options.gateway_replicas_per_backend = 2;
    options.gateway_replica_cores = 4;
    options.gateway_backends_per_service = 4;
    options.seed = kWorldSeed * 9973 + az;
    return options;
  }
};

RegionShape full_region() { return RegionShape{}; }

RegionShape probe_region() {
  RegionShape shape;
  shape.nodes_per_az = 6;
  shape.services_per_az = 4;
  shape.pods_per_service = 3;
  shape.aggregate_rps = 100'000.0;
  shape.duration = sim::milliseconds(20);
  shape.generators_per_az = 16;
  shape.tenants = 20;
  return shape;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint32_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::uint32_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

sim::Duration flow_spacing(std::size_t flows, double rps) {
  return static_cast<sim::Duration>(static_cast<double>(sim::kSecond) *
                                    static_cast<double>(flows) / rps);
}

std::uint64_t flow_count(double rps, std::size_t flows, double seconds) {
  return static_cast<std::uint64_t>(seconds * rps /
                                    static_cast<double>(flows));
}

/// Flows spread over one spacing: flow k starts in the k-th slot of
/// spacing/flows, at a seeded offset within its slot.
sim::Duration slot_start(sim::Rng& rng, std::size_t k, std::size_t flows,
                         sim::Duration spacing) {
  const sim::Duration slot =
      std::max<sim::Duration>(1, spacing / static_cast<sim::Duration>(flows));
  return static_cast<sim::Duration>(k) * slot +
         rng.uniform_int(0, slot - 1);
}

/// Flows take client pods round-robin from a seeded starting pod, so every
/// seed drives the same number of distinct clients; each flow targets a
/// seeded service other than its client's own.
std::vector<FlowSpec> single_world_inputs(const WorldOptions& shape,
                                          std::uint64_t seed,
                                          std::size_t flows, double rps,
                                          std::uint16_t port_base,
                                          bool pinned) {
  sim::Rng rng(seed);
  const sim::Duration spacing = flow_spacing(flows, rps);
  const std::size_t pods = shape.services * shape.pods_per_service;
  const std::size_t first_pod = pick(rng, pods);
  std::vector<FlowSpec> out(flows);
  for (std::size_t k = 0; k < flows; ++k) {
    FlowSpec& spec = out[k];
    const std::size_t pod = (first_pod + k) % pods;
    spec.client_service =
        static_cast<std::uint32_t>(pod / shape.pods_per_service);
    spec.client_pod = static_cast<std::uint32_t>(pod % shape.pods_per_service);
    spec.dst_service = static_cast<std::uint32_t>(
        (spec.client_service + 1 + pick(rng, shape.services - 1)) %
        shape.services);
    spec.src_port =
        pinned ? static_cast<std::uint16_t>(port_base + k) : std::uint16_t{0};
    spec.start = slot_start(rng, k, flows, spacing);
  }
  return out;
}

std::vector<FlowSpec> region_inputs(const RegionShape& shape,
                                    std::uint64_t seed) {
  // Table 3 tenant population; generators take tenants in proportion to
  // tenant pod counts, matching the survey's skew.
  core::RegionProfile profile;
  profile.name = "region";
  profile.tenants = shape.tenants;
  core::PopulationGenerator population(sim::Rng(mix_seed(seed, 13)));
  const std::vector<core::TenantProfile> tenants =
      population.generate(profile);
  std::vector<std::uint64_t> cumulative;
  std::uint64_t total_pods = 0;
  for (const auto& tenant : tenants) {
    total_pods += tenant.pods > 0 ? tenant.pods : 1;
    cumulative.push_back(total_pods);
  }

  sim::Rng rng(mix_seed(seed, 29));
  const std::size_t services = shape.services_per_az;
  const double per_generator_rps = shape.aggregate_rps /
                                   static_cast<double>(shape.azs) /
                                   static_cast<double>(shape.generators_per_az);
  const sim::Duration spacing = flow_spacing(1, per_generator_rps);
  const auto cross = static_cast<std::size_t>(
      static_cast<double>(shape.generators_per_az) * shape.cross_az_fraction);
  std::vector<FlowSpec> out;
  out.reserve(shape.azs * shape.generators_per_az);
  for (std::size_t az = 0; az < shape.azs; ++az) {
    const auto port_base = static_cast<std::uint16_t>(
        20'000 + rng.uniform_int(0, 29'000));
    for (std::size_t i = 0; i < shape.generators_per_az; ++i) {
      FlowSpec spec;
      spec.az = static_cast<std::uint32_t>(az);
      // Clients cycle over every service; each targets the service
      // "across" the ring, so no service carries more than its share.
      spec.client_service = static_cast<std::uint32_t>(i % services);
      spec.client_pod = pick(rng, shape.pods_per_service);
      spec.dst_service =
          static_cast<std::uint32_t>((i + services / 2) % services);
      const auto target = static_cast<std::uint64_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(total_pods)));
      const auto it =
          std::lower_bound(cumulative.begin(), cumulative.end(), target);
      spec.tenant = tenants[static_cast<std::size_t>(it - cumulative.begin())]
                        .id;
      spec.start = slot_start(rng, i, shape.generators_per_az, spacing);
      spec.dst_az = spec.az;
      if (i < cross && shape.azs > 1) {
        spec.dst_az = static_cast<std::uint32_t>(
            (az + 1 + pick(rng, shape.azs - 1)) % shape.azs);
        spec.ingress_service = static_cast<std::uint32_t>(i % services);
        spec.ingress_pod = pick(rng, shape.pods_per_service);
        // Cross-AZ flows enter the remote mesh from their own port range.
        spec.src_port = static_cast<std::uint16_t>(
            60'000 + az * shape.generators_per_az + i);
      } else {
        spec.src_port = static_cast<std::uint16_t>(port_base + i);
      }
      out.push_back(spec);
    }
  }
  return out;
}

// --- helpers ----------------------------------------------------------------

template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) / 1e6;
}

/// Named per-layer values; every name must be in layer_metrics().
class Layers {
 public:
  void set(std::string_view name, double value) {
    check(name);
    values_[std::string(name)] = value;
  }
  void add(std::string_view name, double value) {
    check(name);
    values_[std::string(name)] += value;
  }
  [[nodiscard]] std::vector<std::pair<std::string, double>> ordered() const {
    std::vector<std::pair<std::string, double>> out;
    for (const MetricDef& def : layer_metrics()) {
      const auto it = values_.find(std::string(def.name));
      out.emplace_back(std::string(def.name),
                       it == values_.end() ? 0.0 : it->second);
    }
    return out;
  }

 private:
  static void check(std::string_view name) {
    for (const MetricDef& def : layer_metrics()) {
      if (def.name == name) return;
    }
    throw std::logic_error("simbench: unknown layer metric " +
                           std::string(name));
  }
  std::map<std::string, double> values_;
};

Flow make_flow(const FlowSpec& spec, World& world, mesh::MeshDataplane& plane,
               Ledger& ledger, sim::Duration spacing, std::uint64_t count) {
  Flow flow;
  flow.mesh = &plane;
  flow.loop = &world.loop();
  flow.ledger = &ledger;
  flow.client = world.services().at(spec.client_service)
                    ->endpoints.at(spec.client_pod);
  flow.dst_service = world.services().at(spec.dst_service)->id;
  flow.tenant = static_cast<net::TenantId>(spec.tenant);
  flow.src_port = spec.src_port;
  flow.start = world.loop().now() + spec.start;
  flow.spacing = spacing;
  flow.count = count;
  return flow;
}

net::FiveTuple flow_tuple(const Flow& flow, std::size_t index) {
  const std::uint16_t port =
      flow.src_port != 0 ? flow.src_port
                         : static_cast<std::uint16_t>(30'000 + index);
  return net::FiveTuple{flow.client->ip(), mesh::service_vip(flow.dst_service),
                        port, 443, net::Protocol::kTcp};
}

/// Digest and failure accounting shared by every workload.
void settle(Rep& rep, const Ledger& ledger, const LayerCounts& counts,
            std::uint64_t events) {
  rep.attempted = ledger.issued();
  rep.violations = ledger.violations();
  rep.failed = ledger.completed() - std::min(ledger.completed(), ledger.ok());
  rep.digest.sent = ledger.completed();
  rep.digest.ok = ledger.ok();
  const auto& latency = ledger.latency_us();
  rep.digest.p50_us = latency.empty() ? 0.0 : latency.percentile(50);
  rep.digest.p99_us = latency.empty() ? 0.0 : latency.percentile(99);
  rep.digest.fastpath_hits = counts.proxy_fastpath_hits + counts.gw_fastpath_hits;
  rep.digest.fastpath_misses =
      counts.proxy_fastpath_misses + counts.gw_fastpath_misses;
  rep.digest.events = events;
}

/// Runs `loop` until its queue empties, `step` of simulated time at a time
/// from each next event, cutting `clock` after every step. Returns the
/// events run.
std::uint64_t drain(sim::EventLoop& loop, sim::Duration step,
                    SegmentClock& clock) {
  std::uint64_t events = 0;
  clock.start();
  while (const std::optional<sim::TimePoint> next = loop.next_event_time()) {
    events += loop.run_until(std::max(*next, loop.now()) + step);
    clock.cut();
  }
  return events;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void fill_counts(Layers& layers, const Rep& rep, const Ledger& ledger,
                 const LayerCounts& c, std::uint64_t events,
                 std::uint64_t allocs) {
  layers.set("sim.events", static_cast<double>(events));
  layers.set("sim.ns_per_event",
             events == 0 ? 0.0 : rep.run_s * 1e9 / static_cast<double>(events));
  layers.set("sim.allocs_per_request", ratio(allocs, ledger.issued()));
  layers.set("sim.cpu_jobs", static_cast<double>(c.cpu_jobs));
  layers.set("mesh.requests", static_cast<double>(ledger.issued()));
  layers.set("mesh.error_rate",
             ratio(ledger.issued() - std::min(ledger.issued(), ledger.ok()),
                   ledger.issued()));
  layers.set("proxy.fastpath_hits", static_cast<double>(c.proxy_fastpath_hits));
  layers.set("proxy.fastpath_misses",
             static_cast<double>(c.proxy_fastpath_misses));
  layers.set("proxy.fastpath_hit_rate",
             ratio(c.proxy_fastpath_hits,
                   c.proxy_fastpath_hits + c.proxy_fastpath_misses));
  layers.set("proxy.handshakes", static_cast<double>(c.proxy_handshakes));
  layers.set("proxy.sessions_live", static_cast<double>(c.proxy_sessions_live));
  layers.set("canal.gw_fastpath_hits", static_cast<double>(c.gw_fastpath_hits));
  layers.set("canal.gw_fastpath_misses",
             static_cast<double>(c.gw_fastpath_misses));
  layers.set("canal.gw_fastpath_hit_rate",
             ratio(c.gw_fastpath_hits, c.gw_fastpath_hits + c.gw_fastpath_misses));
  layers.set("canal.gw_session_occupancy", c.gw_session_occupancy());
  layers.set("crypto.keyserver_served", static_cast<double>(c.keyserver_served));
  layers.set("crypto.keyserver_rejected",
             static_cast<double>(c.keyserver_rejected));
  layers.set("crypto.remote_signs", static_cast<double>(c.remote_signs));
  layers.set("crypto.fallback_signs", static_cast<double>(c.fallback_signs));
  layers.set("crypto.accel_batches", static_cast<double>(c.accel_batches));
}

/// Times `n` calls of `op(i)`; ns per call.
template <class Op>
double per_op_ns(SpanRecorder* spans, const char* name, std::size_t n,
                 Op&& op) {
  Scope scope(spans, name);
  const std::int64_t start = wall_ns();
  for (std::size_t i = 0; i < n; ++i) op(i);
  return static_cast<double>(wall_ns() - start) / static_cast<double>(n);
}

/// Replays each layer's unit operation on this workload's own inputs — its
/// request, its route and bucket tables, its flow tuples and latencies —
/// outside the timed drain. `world` must have the canal plane built.
void replay_unit_costs(World& world, const std::vector<Flow>& flows,
                       const Ledger& ledger, sim::Duration simulated,
                       SpanRecorder* spans, Layers& layers) {
  Scope replay(spans, "replay");
  const Flow& first = flows.front();
  mesh::RequestOptions opts;
  opts.client = first.client;
  opts.dst_service = first.dst_service;
  opts.path = "/api/items";
  http::Request request = mesh::build_request(opts);
  const std::string wire = request.serialize();

  std::vector<net::FiveTuple> tuples;
  tuples.reserve(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    tuples.push_back(flow_tuple(flows[i], i));
  }

  layers.set("http.parse_ns",
             per_op_ns(spans, "http.parse", 2000, [&](std::size_t) {
               http::RequestParser parser;
               keep(parser.feed(wire));
             }));

  core::GatewayBackend* backend = nullptr;
  if (core::MeshGateway* gw = world.canal_gateway()) {
    const auto placement = gw->placement_of(first.dst_service);
    if (!placement.empty()) backend = placement.front();
  }
  if (backend != nullptr && backend->replica_count() > 0) {
    const http::RouteTable* table =
        backend->replica(0)->engine().route_table(first.dst_service);
    if (table != nullptr) {
      layers.set("http.route_resolve_ns",
                 per_op_ns(spans, "http.route_resolve", 20000,
                           [&](std::size_t) {
                             keep(table->resolve(request, 0.5));
                           }));
    }
    if (const lb::BucketTable* buckets =
            backend->bucket_table(first.dst_service)) {
      const lb::Redirector redirector(*buckets);
      const lb::Redirector::FlowLookup owns =
          [](net::ReplicaId, const net::FiveTuple&) { return true; };
      layers.set("lb.bucket_resolve_ns",
                 per_op_ns(spans, "lb.bucket_resolve", 20000,
                           [&](std::size_t i) {
                             keep(redirector.resolve(
                                 tuples[i % tuples.size()], false, owns));
                           }));
    }
  }

  layers.set("net.flow_hash_ns",
             per_op_ns(spans, "net.flow_hash", 100000, [&](std::size_t i) {
               keep(net::flow_hash(tuples[i % tuples.size()]));
             }));

  proxy::SessionTable sessions(1 << 20);
  for (const auto& tuple : tuples) {
    sessions.insert(tuple, first.dst_service, 0);
  }
  layers.set("proxy.session_touch_ns",
             per_op_ns(spans, "proxy.session_touch", 100000,
                       [&](std::size_t i) {
                         keep(sessions.touch(tuples[i % tuples.size()],
                                             static_cast<sim::TimePoint>(i)));
                       }));

  sim::Rng rng(7);
  const crypto::KeyPair key = crypto::generate_keypair(rng);
  layers.set("crypto.sign_ns",
             per_op_ns(spans, "crypto.sign", 2000, [&](std::size_t) {
               keep(crypto::sign(key.private_key, wire, rng));
             }));
  const crypto::Key256 stream_key = crypto::derive_key("simbench", "key");
  const crypto::Nonce96 nonce = crypto::derive_nonce("simbench", 1);
  const std::string kilobyte(1024, 'p');
  layers.set("crypto.chacha20_ns_per_kb",
             per_op_ns(spans, "crypto.chacha20", 500, [&](std::size_t) {
               keep(crypto::chacha20_apply(stream_key, nonce, kilobyte));
             }));

  const std::vector<double>& samples = ledger.samples_us();
  if (!samples.empty()) {
    telemetry::HdrHistogram histogram;
    layers.set("telemetry.hdr_record_ns",
               per_op_ns(spans, "telemetry.hdr_record", 100000,
                         [&](std::size_t i) {
                           histogram.record(samples[i % samples.size()]);
                         }));
    keep(histogram);
  }
  // One record per simulated sampling tick, into a 25 h series (the
  // gateway's utilization history shape).
  const auto ticks = static_cast<std::size_t>(std::clamp<double>(
      sim::to_seconds(simulated), 1000.0, 100000.0));
  sim::TimeSeries series(sim::hours(25));
  layers.set("telemetry.timeseries_record_ns",
             per_op_ns(spans, "telemetry.timeseries_record", ticks,
                       [&](std::size_t i) {
                         series.record(
                             static_cast<sim::TimePoint>(i) * sim::kSecond, 0.5);
                       }));
  keep(series);

  // The busiest retained core history: one utilization(5 s) query at the
  // interval count this workload leaves behind.
  const sim::CpuCore* busiest = nullptr;
  for (sim::CpuSet* cpu : world.cpu_sets()) {
    for (std::size_t i = 0; i < cpu->size(); ++i) {
      const sim::CpuCore& core = cpu->core(i);
      if (busiest == nullptr ||
          core.interval_count() > busiest->interval_count()) {
        busiest = &core;
      }
    }
  }
  if (busiest != nullptr) {
    layers.set("sim.utilization_ns",
               per_op_ns(spans, "sim.utilization", 20000, [&](std::size_t) {
                 keep(busiest->utilization(sim::seconds(5)));
               }));
  }
}

// --- single-loop workloads --------------------------------------------------

struct PlaneRun {
  Plane plane = Plane::kCanal;
  std::unique_ptr<World> world;
  Ledger ledger;
  std::vector<Flow> flows;
};

Rep planes_steady(const RunConfig& config, SpanRecorder* spans) {
  const bool setup_only = config.setup_only;
  Rep rep;
  Layers layers;
  const std::int64_t rep_start = wall_ns();
  const double seconds = kSteadySeconds * config.scale;
  const sim::Duration spacing = flow_spacing(kSteadyFlows, kSteadyRps);
  const std::uint64_t count = flow_count(kSteadyRps, kSteadyFlows, seconds);

  std::vector<std::unique_ptr<PlaneRun>> runs;
  {
    Scope setup(spans, "setup");
    std::int64_t t = wall_ns();
    const std::vector<FlowSpec> inputs = make_inputs(config);
    layers.add("setup.population_ms", ms_since(t));
    for (const Plane plane : kAllPlanes) {
      auto run = std::make_unique<PlaneRun>();
      run->plane = plane;
      {
        Scope s(spans, "k8s.topology");
        t = wall_ns();
        run->world = std::make_unique<World>(small_world());
        layers.add("setup.topology_ms", ms_since(t));
      }
      {
        Scope s(spans, "mesh.build." + std::string(plane_name(plane)));
        t = wall_ns();
        run->world->build(plane);
        layers.add("setup.planes_ms", ms_since(t));
      }
      {
        Scope s(spans, "setup.schedule");
        t = wall_ns();
        run->ledger.reserve(inputs.size() * count);
        run->flows.reserve(inputs.size());
        for (const FlowSpec& spec : inputs) {
          run->flows.push_back(make_flow(spec, *run->world,
                                         run->world->plane(plane),
                                         run->ledger, spacing, count));
        }
        for (Flow& flow : run->flows) start_flow(flow);
        layers.add("setup.schedule_ms", ms_since(t));
      }
      runs.push_back(std::move(run));
    }
  }
  rep.setup_s = static_cast<double>(wall_ns() - rep_start) / 1e9;
  if (setup_only) return rep;

  // Planes drain one after another; each world is torn down (untimed) as
  // soon as its results are read, so only one plane's traffic state is
  // resident at a time.
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  Ledger total;
  LayerCounts counts;
  SegmentClock clock;
  for (auto& run : runs) {
    const std::string name =
        "mesh." + std::string(plane_name(run->plane)) + ".drain";
    const std::uint64_t allocs_before = sim::alloc_count();
    const double cpu_before = process_cpu_s();
    const std::int64_t drain_start = wall_ns();
    {
      Scope s(spans, name);
      events += drain(run->world->loop(), kSteadySegment, clock);
    }
    const std::int64_t drain_ns = wall_ns() - drain_start;
    rep.cpu_s += process_cpu_s() - cpu_before;
    allocs += sim::alloc_count() - allocs_before;
    rep.run_s += static_cast<double>(drain_ns) / 1e9;
    layers.set(name + "_ms", static_cast<double>(drain_ns) / 1e6);

    total.merge(run->ledger);
    counts.add(count_layers(*run->world));
    if (spans != nullptr && run->plane == Plane::kCanal) {
      replay_unit_costs(*run->world, run->flows, run->ledger,
                        sim::seconds(seconds), spans, layers);
    }
    run.reset();
  }
  rep.segments = clock.segments();
  settle(rep, total, counts, events);
  if (spans != nullptr) {
    fill_counts(layers, rep, total, counts, events, allocs);
    rep.layers = layers.ordered();
  }
  return rep;
}

/// conn_churn and idle_sessions: one canal world, one drain.
Rep canal_single(const RunConfig& config, SpanRecorder* spans, bool churn) {
  const bool setup_only = config.setup_only;
  Rep rep;
  Layers layers;
  const std::int64_t rep_start = wall_ns();
  const double seconds =
      (churn ? kChurnSeconds : kIdleHours * 3600.0) * config.scale;
  const std::size_t flows_n = churn ? kChurnFlows : kIdleFlows;
  const double rps = churn ? kChurnRps : kIdleRps;
  const sim::Duration spacing = flow_spacing(flows_n, rps);
  const std::uint64_t count = flow_count(rps, flows_n, seconds);
  const sim::TimePoint end = sim::seconds(seconds);

  std::unique_ptr<World> world;
  Ledger ledger;
  std::vector<Flow> flows;
  std::unique_ptr<k8s::ConfigPropagation> propagation;
  std::vector<net::ServiceId> service_ids;
  const mesh::MeshDataplane::EngineApply reapply =
      [&service_ids](proxy::ProxyEngine& engine) {
        // A no-op config push: reinstall each route table as is, which
        // moves the engine's route epoch and invalidates its fastpath.
        for (const net::ServiceId id : service_ids) {
          if (const http::RouteTable* table = engine.route_table(id)) {
            engine.set_route_table(id, *table);
          }
        }
      };
  {
    Scope setup(spans, "setup");
    std::int64_t t = wall_ns();
    const std::vector<FlowSpec> inputs = make_inputs(config);
    layers.add("setup.population_ms", ms_since(t));
    {
      Scope s(spans, "k8s.topology");
      t = wall_ns();
      world = std::make_unique<World>(churn ? small_world() : idle_world());
      layers.add("setup.topology_ms", ms_since(t));
    }
    {
      Scope s(spans, "mesh.build.canal");
      t = wall_ns();
      world->build(Plane::kCanal);
      layers.add("setup.planes_ms", ms_since(t));
    }
    Scope s(spans, "setup.schedule");
    t = wall_ns();
    sim::EventLoop& loop = world->loop();
    ledger.reserve(inputs.size() * count);
    flows.reserve(inputs.size());
    for (const FlowSpec& spec : inputs) {
      flows.push_back(make_flow(spec, *world, world->plane(Plane::kCanal),
                                ledger, spacing, count));
    }
    for (Flow& flow : flows) start_flow(flow);
    if (churn) {
      for (const k8s::Service* service : world->services()) {
        service_ids.push_back(service->id);
      }
      propagation = std::make_unique<k8s::ConfigPropagation>(
          loop, k8s::ControlPlaneProfile{});
      core::CanalMesh* canal = world->canal();
      for (sim::TimePoint at = sim::milliseconds(25); at < end;
           at += kEpochPeriod) {
        loop.post_at(at, [&propagation, canal, &reapply] {
          propagation->push_epoch(canal->config_epoch_targets(reapply));
        });
      }
    } else {
      std::vector<core::GatewayBackend*> backends = world->backends();
      for (core::GatewayBackend* backend : backends) {
        backend->start_sampling(kSamplingPeriod);
      }
      // Sampling timers re-arm forever: stop them once the trickle ends so
      // the drain terminates.
      loop.post_at(end + sim::seconds(1), [backends] {
        for (core::GatewayBackend* backend : backends) backend->stop_sampling();
      });
    }
    layers.add("setup.schedule_ms", ms_since(t));
  }
  rep.setup_s = static_cast<double>(wall_ns() - rep_start) / 1e9;
  if (setup_only) return rep;

  const std::uint64_t allocs_before = sim::alloc_count();
  const double cpu_before = process_cpu_s();
  const std::int64_t drain_start = wall_ns();
  std::uint64_t events = 0;
  SegmentClock clock;
  {
    Scope s(spans, "mesh.canal.drain");
    events = drain(world->loop(), churn ? kChurnSegment : kIdleSegment, clock);
  }
  rep.run_s = static_cast<double>(wall_ns() - drain_start) / 1e9;
  rep.cpu_s = process_cpu_s() - cpu_before;
  const std::uint64_t allocs = sim::alloc_count() - allocs_before;
  rep.segments = clock.segments();

  const LayerCounts counts = count_layers(*world);
  settle(rep, ledger, counts, events);
  if (spans != nullptr) {
    layers.set("mesh.canal.drain_ms", rep.run_s * 1e3);
    fill_counts(layers, rep, ledger, counts, events, allocs);
    if (propagation) {
      layers.set("k8s.config_epochs",
                 static_cast<double>(propagation->latest_epoch()));
      layers.set("k8s.config_applies",
                 static_cast<double>(propagation->applies_total()));
      layers.set("k8s.config_superseded",
                 static_cast<double>(propagation->superseded_total()));
    }
    replay_unit_costs(*world, flows, ledger, sim::seconds(seconds), spans,
                      layers);
    rep.layers = layers.ordered();
  }
  return rep;
}

// --- sharded region ---------------------------------------------------------

Rep run_region(const RegionShape& shape, const std::vector<FlowSpec>& inputs,
               std::size_t shards, double scale, bool setup_only,
               SpanRecorder* spans, Layers* layers_out) {
  Rep rep;
  Layers layers;
  const std::int64_t rep_start = wall_ns();
  const double per_generator_rps = shape.aggregate_rps /
                                   static_cast<double>(shape.azs) /
                                   static_cast<double>(shape.generators_per_az);
  const sim::Duration spacing = flow_spacing(1, per_generator_rps);
  const std::uint64_t count = flow_count(
      per_generator_rps, 1, sim::to_seconds(shape.duration) * scale);

  // Lookahead from the full AZ latency matrix with an identity partition,
  // so the window schedule cannot depend on the shard count.
  const net::Link cross_link = net::LinkProfiles::cross_az();
  const std::vector<std::size_t> partition =
      k8s::partition_region(shape.azs, shards);
  std::vector<std::vector<sim::Duration>> latency(
      shape.azs, std::vector<sim::Duration>(shape.azs, cross_link.latency()));
  std::vector<std::size_t> identity(shape.azs);
  for (std::size_t a = 0; a < shape.azs; ++a) identity[a] = a;
  const sim::Duration lookahead =
      shape.azs > 1 ? k8s::cross_shard_lookahead(latency, identity)
                    : cross_link.latency();
  sim::ShardedSim sharded(partition, lookahead);

  std::vector<std::unique_ptr<World>> worlds;
  std::vector<Ledger> ledgers(shape.azs);
  std::vector<std::vector<std::unique_ptr<net::ShardChannel>>> channels(
      shape.azs);
  std::vector<Flow> flows;
  {
    Scope setup(spans, "setup");
    std::int64_t t = wall_ns();
    {
      Scope s(spans, "k8s.topology");
      for (std::size_t az = 0; az < shape.azs; ++az) {
        worlds.push_back(std::make_unique<World>(sharded.domain_loop(az),
                                                 shape.world(az)));
      }
      layers.add("setup.topology_ms", ms_since(t));
    }
    {
      Scope s(spans, "mesh.build.canal");
      t = wall_ns();
      for (auto& world : worlds) world->build(Plane::kCanal);
      layers.add("setup.planes_ms", ms_since(t));
    }
    Scope s(spans, "setup.schedule");
    t = wall_ns();
    for (std::size_t a = 0; a < shape.azs; ++a) {
      channels[a].resize(shape.azs);
      for (std::size_t b = 0; b < shape.azs; ++b) {
        if (a != b) {
          channels[a][b] =
              std::make_unique<net::ShardChannel>(sharded, a, b, cross_link);
        }
      }
    }
    for (Ledger& ledger : ledgers) {
      ledger.reserve(shape.generators_per_az * count);
    }
    flows.reserve(inputs.size());
    for (const FlowSpec& spec : inputs) {
      World& home = *worlds[spec.az];
      Flow flow = make_flow(spec, home, home.plane(Plane::kCanal),
                            ledgers[spec.az], spacing, count);
      if (spec.dst_az != spec.az) {
        World& remote = *worlds[spec.dst_az];
        flow.forward = channels[spec.az][spec.dst_az].get();
        flow.reverse = channels[spec.dst_az][spec.az].get();
        flow.remote_mesh = &remote.plane(Plane::kCanal);
        flow.ingress = remote.services().at(spec.ingress_service)
                           ->endpoints.at(spec.ingress_pod);
        flow.dst_service = remote.services().at(spec.dst_service)->id;
      }
      flows.push_back(flow);
    }
    for (Flow& flow : flows) start_flow(flow);
    layers.add("setup.schedule_ms", ms_since(t));
  }
  rep.setup_s = static_cast<double>(wall_ns() - rep_start) / 1e9;
  if (setup_only) return rep;

  std::unique_ptr<canal::runner::PoolShardRunner> pool;
  if (shards > 1) {
    pool = std::make_unique<canal::runner::PoolShardRunner>(shards);
  }
  canal::sim::SerialShardRunner serial;
  canal::sim::ShardRunner& base =
      pool ? static_cast<canal::sim::ShardRunner&>(*pool) : serial;
  std::unique_ptr<TimedShardRunner> timed;
  if (spans != nullptr) timed = std::make_unique<TimedShardRunner>(base, spans);
  // Segments run from one round's start to the next's.
  SegmentClock clock;
  SegmentedShardRunner segmented(
      timed ? static_cast<canal::sim::ShardRunner&>(*timed) : base, clock);

  const std::uint64_t allocs_before = sim::alloc_count();
  const double cpu_before = process_cpu_s();
  const std::int64_t drain_start = wall_ns();
  sim::ShardedSim::Stats stats;
  {
    Scope s(spans, "mesh.canal.drain");
    clock.start();
    stats = sharded.run(&segmented);
    clock.cut();
  }
  rep.run_s = static_cast<double>(wall_ns() - drain_start) / 1e9;
  rep.cpu_s = process_cpu_s() - cpu_before;
  std::uint64_t allocs = sim::alloc_count() - allocs_before;
  rep.segments = clock.segments();

  Ledger total;
  LayerCounts counts;
  for (std::size_t az = 0; az < shape.azs; ++az) {
    total.merge(ledgers[az]);
    counts.add(count_layers(*worlds[az]));
  }
  settle(rep, total, counts, stats.events);
  if (spans != nullptr) {
    const TimedShardRunner::Totals& totals = timed->totals();
    allocs += totals.task_allocs;
    layers.set("mesh.canal.drain_ms", rep.run_s * 1e3);
    fill_counts(layers, rep, total, counts, stats.events, allocs);
    layers.set("sim.shard_rounds", static_cast<double>(stats.rounds));
    layers.set("sim.shard_messages", static_cast<double>(stats.messages));
    layers.set("sim.shard_busy_max_ms", stats.busy_ms_max());
    layers.set("sim.shard_busy_sum_ms", stats.busy_ms_sum());
    layers.set("sim.shard_critical_path_ms", totals.critical_path_ms);
    layers.set("sim.barrier_wait_ms", totals.barrier_wait_ms);
    std::vector<double> rounds = totals.round_us;
    std::sort(rounds.begin(), rounds.end());
    if (!rounds.empty()) {
      layers.set("sim.round_us_p50", rounds[rounds.size() / 2]);
      layers.set("sim.round_us_p90", rounds[rounds.size() * 9 / 10]);
    }
    // The pure barrier: a round of empty tasks, one per shard.
    std::vector<std::function<void()>> empty(sharded.shards(), [] {});
    layers.set("runner.run_round_empty_us",
               per_op_ns(spans, "runner.run_round_empty", 500,
                         [&](std::size_t) { base.run_round(empty); }) /
                   1e3);
    // Unit costs on AZ 0's inputs (its flows lead the flow list).
    std::vector<Flow> az0;
    for (const Flow& flow : flows) {
      if (flow.ledger == &ledgers[0] && flow.forward == nullptr) {
        az0.push_back(flow);
      }
    }
    replay_unit_costs(*worlds[0], az0, ledgers[0], shape.duration, spans,
                      layers);
    rep.layers = layers.ordered();
  }
  if (layers_out != nullptr) *layers_out = layers;
  return rep;
}

}  // namespace

std::vector<FlowSpec> make_inputs(const RunConfig& config) {
  const std::string& w = config.workload;
  if (w == "planes_steady") {
    return single_world_inputs(small_world(), mix_seed(config.seed, 1),
                               kSteadyFlows, kSteadyRps, 20'000, true);
  }
  if (w == "conn_churn") {
    return single_world_inputs(small_world(), mix_seed(config.seed, 2),
                               kChurnFlows, kChurnRps, 0, false);
  }
  if (w == "idle_sessions") {
    return single_world_inputs(idle_world(), mix_seed(config.seed, 3),
                               kIdleFlows, kIdleRps, 10'000, true);
  }
  if (w == "region_sharded") return region_inputs(full_region(), config.seed);
  throw std::invalid_argument("simbench: unknown workload " + w);
}

std::uint64_t inputs_fingerprint(const std::vector<FlowSpec>& inputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
  };
  for (const FlowSpec& f : inputs) {
    mix(f.az);
    mix(f.client_service);
    mix(f.client_pod);
    mix(f.dst_az);
    mix(f.dst_service);
    mix(f.ingress_service);
    mix(f.ingress_pod);
    mix(f.tenant);
    mix(f.src_port);
    mix(static_cast<std::uint64_t>(f.start));
  }
  return h;
}

std::uint64_t world_fingerprint(const RunConfig& config) {
  WorldOptions options = small_world();
  if (config.workload == "idle_sessions") options = idle_world();
  if (config.workload == "region_sharded") options = full_region().world(0);
  if (!known_workload(config.workload)) {
    throw std::invalid_argument("simbench: unknown workload " +
                                config.workload);
  }
  World world(options);
  world.build(Plane::kCanal);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
  };
  for (const auto& pod : world.cluster().pods()) {
    mix(net::id_value(pod->id()));
    mix(pod->ip().value());
    mix(net::id_value(pod->node().id()));
    mix(net::id_value(pod->service()));
  }
  for (const k8s::Service* service : world.services()) {
    mix(net::id_value(service->id));
    for (core::GatewayBackend* backend :
         world.canal_gateway()->placement_of(service->id)) {
      mix(net::id_value(backend->id()));
    }
  }
  return h;
}

Rep run_rep(const RunConfig& config, SpanRecorder* spans) {
  if (config.workload == "planes_steady") return planes_steady(config, spans);
  if (config.workload == "conn_churn") return canal_single(config, spans, true);
  if (config.workload == "idle_sessions") {
    return canal_single(config, spans, false);
  }
  if (config.workload == "region_sharded") {
    const RegionShape shape = full_region();
    const std::int64_t t = wall_ns();
    std::vector<FlowSpec> inputs;
    {
      Scope s(spans, "setup.population");
      inputs = region_inputs(shape, config.seed);
    }
    const double population_ms = ms_since(t);
    Layers layers;
    Rep rep = run_region(shape, inputs, config.shards, config.scale,
                         config.setup_only, spans, &layers);
    rep.setup_s += population_ms / 1e3;
    if (spans != nullptr) {
      layers.set("setup.population_ms", population_ms);
      rep.layers = layers.ordered();
    }
    return rep;
  }
  throw std::invalid_argument("simbench: unknown workload " + config.workload);
}

std::pair<Digest, Digest> region_shard_probe(std::uint64_t seed,
                                             std::size_t shards) {
  const RegionShape shape = probe_region();
  const std::vector<FlowSpec> inputs = region_inputs(shape, seed);
  const Rep one = run_region(shape, inputs, 1, 1.0, false, nullptr, nullptr);
  const Rep many = run_region(shape, inputs, shards, 1.0, false, nullptr, nullptr);
  return {one.digest, many.digest};
}

}  // namespace simbench
