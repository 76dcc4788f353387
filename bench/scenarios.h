// The bench suite's scenario registry: every table the retired serial
// binaries used to print, re-expressed as self-contained runner scenarios,
// and the one family table (`bench_families`) that bench_suite derives its
// registration, spec grid, golden routing, seed-sweep headlines and --help
// text from. A new figure costs one scenario function and one row.
//
// Each scenario function receives one runner::RunSpec and builds everything
// it touches — Testbed (own sim::EventLoop), meshes, fault plans, metrics
// registry — from that spec alone. Nothing is shared with sibling runs, so
// the suite front-end (bench_suite.cc) can execute any subset on any number
// of worker threads and reduce to byte-identical output.
//
// Seeding convention: `spec.seed` feeds Testbed::Options::seed, and every
// manually-built mesh derives its RNG from it with the same +1..+5 offsets
// Testbed::build_* uses, so seed sweeps perturb all stochastic inputs
// coherently. Seed 1 reproduces the committed BENCH_*.json base sections.
// Families that replace a figure binary (the ops_* families and the
// paper-figure block below) keep that binary's RNG seeds at seed 1 (e.g.
// ops_daily's 801/809/811/821/823 = 800 + seed + offset), so higher seeds
// shift every RNG by the same amount.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/json_report.h"
#include "bench/region.h"
#include "canal/cost_model.h"
#include "canal/fault_injector.h"
#include "canal/health_aggregation.h"
#include "canal/innocence.h"
#include "canal/intervention.h"
#include "canal/pattern_monitor.h"
#include "canal/population.h"
#include "canal/proxyless.h"
#include "canal/scaling.h"
#include "canal/sharding.h"
#include "crypto/accelerator.h"
#include "crypto/cert.h"
#include "crypto/keyserver.h"
#include "crypto/rotation.h"
#include "k8s/propagation.h"
#include "lb/aggregation.h"
#include "lb/bucket_table.h"
#include "net/vswitch.h"
#include "proxy/cost_model.h"
#include "proxy/nagle.h"
#include "runner/run.h"
#include "runner/runner.h"
#include "runner/shard_exec.h"
// Referencing sim::alloc_count() swaps in the counting operator new for
// the whole suite binary (see alloc_hook.h) — how selfperf's `allocs`
// golden observes the heap.
#include "sim/alloc_hook.h"
#include "sim/fault.h"
#include "telemetry/fairness.h"
#include "telemetry/rca.h"
#include "telemetry/sampler.h"
#include "telemetry/trace_export.h"

namespace canal::bench {
namespace scenarios {

// ---------------------------------------------------------------------------
// latency_light — Fig 10: light workload (1 conn, 1 RPS x 100), per
// dataplane. Metrics are the request percentiles plus the per-component
// span decomposition (every request is traced; tracing is observational
// and does not change simulated timings).

inline runner::RunResult latency_light(const runner::RunSpec& spec) {
  Testbed::Options options;
  options.app_service_time = sim::microseconds(100);  // echo-style app
  options.seed = spec.seed;
  Testbed bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "no-mesh") {
    bed.build_nomesh();
    mesh = bed.nomesh.get();
  } else if (spec.variant == "canal") {
    bed.build_canal();
    mesh = bed.canal.get();
  } else if (spec.variant == "ambient") {
    bed.build_ambient();
    mesh = bed.ambient.get();
  } else if (spec.variant == "istio") {
    bed.build_istio();
    mesh = bed.istio.get();
  } else {
    throw std::runtime_error("latency_light: unknown variant " +
                             spec.variant);
  }

  telemetry::MetricsRegistry registry;
  const telemetry::MetricsRegistry::Labels labels = {
      {"dataplane", spec.variant}};
  telemetry::TraceRecorder recorder(registry, labels);
  const auto count = static_cast<int>(spec.override_or("requests", 100));
  const sim::TimePoint start = bed.loop.now();
  for (int i = 0; i < count; ++i) {
    bed.loop.post_at(start + i * sim::kSecond, [&] {
      mesh::RequestOptions opts = bed.request(/*new_connection=*/false);
      opts.trace = true;
      mesh->send_request(opts, [&](mesh::RequestResult r) {
        if (r.trace) recorder.record(*r.trace);
      });
    });
  }
  bed.loop.run();

  runner::RunResult result;
  result.metrics = latency_decomposition_metrics(registry, labels);
  return result;
}

// ---------------------------------------------------------------------------
// latency_bimodal — Fig 24: E2E latency distribution in a production-like
// cluster (bimodal app think time) through the Canal path; shows the
// gateway hairpin and 0.7 ms key server are negligible vs 40-200 ms apps.

inline runner::RunResult latency_bimodal(const runner::RunSpec& spec) {
  Testbed::Options options;
  options.app_service_time = sim::milliseconds(45);
  options.seed = spec.seed;
  Testbed bed(options);
  bed.build_canal();

  sim::Histogram latency_ms;
  std::uint64_t ok = 0;
  k8s::AppProfile bimodal;  // defaults: 45 ms / 140 ms mixture
  k8s::Service& service = bed.cluster.add_service("production-app");
  for (int i = 0; i < 10; ++i) {
    bed.cluster.add_pod(service, bimodal).set_phase(k8s::PodPhase::kRunning);
  }
  bed.canal->install();

  const sim::TimePoint start = bed.loop.now();
  for (int i = 0; i < 2000; ++i) {
    bed.loop.post_at(start + i * sim::milliseconds(5), [&] {
      mesh::RequestOptions opts = bed.request(true);
      opts.dst_service = service.id;
      bed.canal->send_request(opts, [&](mesh::RequestResult r) {
        if (r.ok()) ++ok;
        latency_ms.record(sim::to_milliseconds(r.latency));
      });
    });
  }
  bed.loop.run();

  runner::RunResult result;
  result.set("requests", static_cast<double>(latency_ms.count()));
  result.set("ok", static_cast<double>(ok));
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    result.set("p" + JsonReport::format_number(p) + "_ms",
               latency_ms.percentile(p));
  }
  return result;
}

// ---------------------------------------------------------------------------
// throughput_knee — Fig 11: P99 latency under increasing offered load; the
// knee (highest RPS whose P99 stays within 5x unloaded) is the paper's
// headline throughput. Core budget mirrors Fig 13: Istio 2-core sidecar
// pools, Ambient 1-core ztunnels + 4-core waypoint, Canal 1-core on-node
// proxies + one 2-core gateway replica.

struct SweepPoint {
  double rps;
  double p99_us;
  double error_rate;
};

inline runner::RunResult throughput_knee(const runner::RunSpec& spec) {
  Testbed::Options options;
  options.app_service_time = sim::microseconds(100);
  options.node_cores = 64;  // apps must not be the bottleneck
  options.seed = spec.seed;
  Testbed bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "istio") {
    mesh::IstioMesh::Config config;
    config.sidecar_cores_per_node = 2;
    bed.istio = std::make_unique<mesh::IstioMesh>(
        bed.loop, bed.cluster, config, sim::Rng(options.seed + 1));
    bed.istio->install();
    mesh = bed.istio.get();
  } else if (spec.variant == "ambient") {
    mesh::AmbientMesh::Config config;
    config.ztunnel_cores = 1;
    config.waypoint_cores = 4;
    bed.ambient = std::make_unique<mesh::AmbientMesh>(
        bed.loop, bed.cluster, config, sim::Rng(options.seed + 2));
    bed.ambient->install();
    mesh = bed.ambient.get();
  } else if (spec.variant == "canal") {
    core::GatewayConfig gateway_config;
    gateway_config.replicas_per_backend = 1;
    gateway_config.replica_cores = 2;
    gateway_config.backends_per_service_local = 1;
    bed.gateway = std::make_unique<core::MeshGateway>(
        bed.loop, gateway_config, sim::Rng(options.seed + 3));
    bed.gateway->add_az(1);
    core::CanalMesh::Config canal_config;
    canal_config.onnode.cores = 1;
    bed.canal = std::make_unique<core::CanalMesh>(
        bed.loop, bed.cluster, *bed.gateway, canal_config,
        sim::Rng(options.seed + 5));
    bed.canal->install();
    mesh = bed.canal.get();
  } else {
    throw std::runtime_error("throughput_knee: unknown variant " +
                             spec.variant);
  }

  telemetry::MetricsRegistry registry;
  const telemetry::MetricsRegistry::Labels labels = {
      {"dataplane", spec.variant}};
  std::vector<SweepPoint> points;
  std::string sweep_note;
  for (double rps = 200.0; rps <= 40'000.0; rps *= 1.3) {
    LoadResult load = drive_open_loop(bed, *mesh, rps, sim::seconds(2),
                                      false, &registry, labels);
    const SweepPoint point{rps, load.latency_us.percentile(99),
                           load.error_rate()};
    points.push_back(point);
    if (!sweep_note.empty()) sweep_note += "  ";
    sweep_note += fmt("%.0f", rps) + ":" + fmt_us(point.p99_us);
    // Far past saturation: stop the sweep.
    if (point.p99_us > 50'000 || point.error_rate > 0.2) break;
  }

  // Knee: highest swept RPS whose P99 stays under 5x the unloaded P99.
  const double bound = points.front().p99_us * 5.0;
  double knee = points.front().rps;
  for (const auto& point : points) {
    if (point.p99_us <= bound && point.error_rate < 0.01) knee = point.rps;
  }

  runner::RunResult result;
  result.set("knee_rps", knee);
  result.set("sweep_points", static_cast<double>(points.size()));
  for (auto& metric : latency_decomposition_metrics(registry, labels)) {
    result.metrics.push_back(std::move(metric));
  }
  result.note("sweep", sweep_note);
  return result;
}

// ---------------------------------------------------------------------------
// faults_* — robustness under injected faults (pod-kill, gateway replica
// crash, link loss), with the client retry layer on or off. Per-phase
// success rate and p99, bucketed by request *send* time.

namespace detail {

constexpr sim::TimePoint kFaultStart = 2 * sim::kSecond;
constexpr sim::TimePoint kFaultEnd = 5 * sim::kSecond;
constexpr sim::Duration kFaultRunLength = 8 * sim::kSecond;
constexpr double kFaultRps = 400.0;

struct Window {
  std::uint64_t issued = 0;
  std::uint64_t done = 0;
  std::uint64_t ok = 0;
  std::uint64_t attempts = 0;
  std::uint64_t timeouts = 0;
  sim::Histogram ok_latency_us;

  [[nodiscard]] double success() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(ok) /
                             static_cast<double>(issued);
  }
  [[nodiscard]] double p99_us() const {
    return ok == 0 ? 0.0 : ok_latency_us.percentile(99.0);
  }
};

struct FaultRun {
  Window before;
  Window during;
  Window after;

  Window& at(sim::TimePoint send_time) {
    if (send_time < kFaultStart) return before;
    if (send_time < kFaultEnd) return during;
    return after;
  }
  [[nodiscard]] std::uint64_t unanswered() const {
    return (before.issued + during.issued + after.issued) -
           (before.done + during.done + after.done);
  }
};

inline mesh::RetryPolicy fault_retry_policy(bool retries) {
  mesh::RetryPolicy policy;
  // Both settings get the same per-try timeout so dropped requests resolve
  // as 504 either way; only the attempt count differs.
  policy.max_attempts = retries ? 3 : 1;
  policy.per_try_timeout = sim::milliseconds(25);
  policy.base_backoff = sim::milliseconds(1);
  policy.max_backoff = sim::milliseconds(8);
  policy.jitter = 0.5;
  return policy;
}

/// Open-loop driver over the retry layer, splitting results into the
/// before/during/after windows of the fault timeline.
inline FaultRun drive_with_faults(Testbed& bed, mesh::MeshDataplane& mesh,
                                  const mesh::RetryPolicy& policy,
                                  bool new_connections, std::uint64_t seed,
                                  mesh::RetryBudget* budget = nullptr) {
  FaultRun result;
  sim::Rng retry_rng(0xfa017 + seed);
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) / kFaultRps);
  const auto count = static_cast<std::uint64_t>(
      sim::to_seconds(kFaultRunLength) * kFaultRps);
  for (std::uint64_t i = 0; i < count; ++i) {
    const sim::TimePoint send_time =
        bed.loop.now() + static_cast<sim::Duration>(i) * spacing;
    bed.loop.post_at(
        send_time, [&bed, &mesh, &result, &policy, &retry_rng, budget,
                    send_time, new_connections] {
          mesh::RequestOptions opts = bed.request(new_connections);
          Window& window = result.at(send_time);
          ++window.issued;
          mesh.send_request_with_retries(
              opts, policy, retry_rng,
              [&window](mesh::RequestResult r) {
                ++window.done;
                window.attempts += r.attempts;
                if (r.timed_out) ++window.timeouts;
                if (r.ok()) {
                  ++window.ok;
                  window.ok_latency_us.record(
                      sim::to_microseconds(r.latency));
                }
              },
              budget);
        });
  }
  // Health monitors keep periodic probes pending forever, so run for a
  // fixed horizon (with drain slack for in-flight retries) instead of
  // draining the loop.
  bed.loop.run_for(kFaultRunLength + sim::milliseconds(500));
  return result;
}

inline void fault_metrics(runner::RunResult& out, const FaultRun& run) {
  out.set("ok_pre", run.before.success());
  out.set("ok_fault", run.during.success());
  out.set("ok_post", run.after.success());
  out.set("p99_pre_us", run.before.p99_us());
  out.set("p99_fault_us", run.during.p99_us());
  out.set("p99_post_us", run.after.p99_us());
  out.set("tries_per_req_fault",
          run.during.done == 0
              ? 0.0
              : static_cast<double>(run.during.attempts) /
                    static_cast<double>(run.during.done));
  out.set("timeouts", static_cast<double>(run.before.timeouts +
                                          run.during.timeouts +
                                          run.after.timeouts));
  out.set("unanswered", static_cast<double>(run.unanswered()));
}

}  // namespace detail

/// Fault 1: 2/10 target pods crash at 2s, restart at 5s; the proxied
/// planes hold stale endpoint tables and need retries to mask the holes.
inline runner::RunResult faults_podkill(const runner::RunSpec& spec) {
  const bool retries = spec.override_or("retries", 0) != 0;
  Testbed::Options options;
  options.seed = spec.seed;
  Testbed bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant.rfind("nomesh", 0) == 0) {
    bed.build_nomesh();
    mesh = bed.nomesh.get();
  } else if (spec.variant.rfind("istio", 0) == 0) {
    bed.build_istio();
    mesh = bed.istio.get();
  } else if (spec.variant.rfind("ambient", 0) == 0) {
    bed.build_ambient();
    mesh = bed.ambient.get();
  } else if (spec.variant.rfind("canal", 0) == 0) {
    bed.build_canal();
    mesh = bed.canal.get();
  } else {
    throw std::runtime_error("faults_podkill: unknown variant " +
                             spec.variant);
  }

  // Victims spread apart in round-robin order so adjacent-pick retries
  // land on live pods.
  sim::FaultPlan plan;
  const auto& pods = bed.services.back()->endpoints;
  for (std::size_t index : {std::size_t{2}, std::size_t{7}}) {
    plan.kill_pod_for(detail::kFaultStart,
                      static_cast<std::uint64_t>(pods[index]->id()),
                      detail::kFaultEnd - detail::kFaultStart);
  }
  core::FaultInjector injector(bed.loop, bed.cluster, bed.gateway.get());
  injector.arm(plan);
  mesh::RetryBudget budget(0.5, 10);
  const detail::FaultRun run = detail::drive_with_faults(
      bed, *mesh, detail::fault_retry_policy(retries),
      /*new_connections=*/false, spec.seed, &budget);

  runner::RunResult result;
  detail::fault_metrics(result, run);
  return result;
}

/// Fault 2: a Canal gateway replica crashes at 2s and revives at 5s; the
/// GatewayHealthMonitor (when on) evicts it after 3 failed probes, closing
/// the 503 window to ~300 ms of detection.
inline runner::RunResult faults_gwcrash(const runner::RunSpec& spec) {
  const bool retries = spec.override_or("retries", 0) != 0;
  const bool with_monitor = spec.override_or("monitor", 0) != 0;
  Testbed::Options options;
  options.seed = spec.seed;
  Testbed bed(options);
  bed.build_canal();

  sim::FaultPlan plan;
  const auto backend =
      static_cast<std::uint32_t>(bed.gateway->all_backends().front()->id());
  plan.crash_gateway_replica(detail::kFaultStart, backend,
                             /*replica_index=*/0);
  plan.recover_gateway_replica(detail::kFaultEnd, backend,
                               /*replica_index=*/0);
  core::FaultInjector injector(bed.loop, bed.cluster, bed.gateway.get());
  injector.arm(plan);
  core::GatewayHealthMonitor monitor(bed.loop, *bed.gateway);
  if (with_monitor) monitor.start();
  // New connection per request so flows hash across all replicas and a
  // single dead replica shows up as a partial dip, not all-or-nothing.
  const detail::FaultRun run = detail::drive_with_faults(
      bed, *bed.canal, detail::fault_retry_policy(retries),
      /*new_connections=*/true, spec.seed);

  runner::RunResult result;
  detail::fault_metrics(result, run);
  result.set("evictions", static_cast<double>(monitor.evictions()));
  result.set("readmissions", static_cast<double>(monitor.readmissions()));
  return result;
}

/// Fault 3: 20% link loss + 2ms latency spike from 2s to 5s (nomesh);
/// dropped requests never complete on their own, so only the per-try
/// timeout (25 ms -> 504) recovers them, and retries then re-send.
inline runner::RunResult faults_linkloss(const runner::RunSpec& spec) {
  const bool retries = spec.override_or("retries", 0) != 0;
  Testbed::Options options;
  options.seed = spec.seed;
  Testbed bed(options);

  sim::FaultPlan plan;
  plan.link_loss(detail::kFaultStart, detail::kFaultEnd, 0.2);
  plan.link_latency_spike(detail::kFaultStart, detail::kFaultEnd,
                          sim::milliseconds(2));
  mesh::NetworkProfile net;
  net.faults = &plan;
  bed.nomesh = std::make_unique<mesh::NoMesh>(bed.loop, bed.cluster, net);
  mesh::RetryBudget budget(0.5, 10);
  const detail::FaultRun run = detail::drive_with_faults(
      bed, *bed.nomesh, detail::fault_retry_policy(retries),
      /*new_connections=*/false, spec.seed, &budget);

  runner::RunResult result;
  detail::fault_metrics(result, run);
  return result;
}

// ---------------------------------------------------------------------------
// noisy_neighbor — tenant-fairness analytics under a one-tenant surge.
// Four tenants share one dataplane and one target service; the last tenant
// offers ~10x the others' load. Per-tenant latency/throughput/error
// metrics come from a TenantRecorderSet, the fairness summary (including
// Jain's index) from FairnessReport::from_registry, and attribution from
// RootCauseAnalyzer::pinpoint_tenants — the surge tenant must come back as
// the top throughput-share suspect. The run also exercises deterministic
// head-based trace sampling: sampled traces land in a TraceExport attached
// to the result (bench_suite --trace-out writes them out).

inline runner::RunResult noisy_neighbor(const runner::RunSpec& spec) {
  Testbed::Options options;
  options.app_service_time = sim::microseconds(100);
  options.seed = spec.seed;
  Testbed bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "canal") {
    bed.build_canal();
    mesh = bed.canal.get();
  } else if (spec.variant == "ambient") {
    bed.build_ambient();
    mesh = bed.ambient.get();
  } else if (spec.variant == "istio") {
    bed.build_istio();
    mesh = bed.istio.get();
  } else {
    throw std::runtime_error("noisy_neighbor: unknown variant " +
                             spec.variant);
  }

  auto registry = std::make_shared<telemetry::MetricsRegistry>();
  telemetry::TenantRecorderSet recorders(*registry,
                                         {{"dataplane", spec.variant}});
  telemetry::TraceSampler sampler(spec.override_or("sample_rate", 0.1),
                                  spec.seed);
  auto traces = std::make_shared<telemetry::TraceExport>();

  constexpr int kTenants = 4;
  const double base_rps = spec.override_or("rps", 300.0);
  const double surge = spec.override_or("surge", 10.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_s", 2.0) * sim::kSecond);
  const sim::TimePoint start = bed.loop.now();
  std::uint64_t request_index = 0;  // dispatch-order, so deterministic
  for (int t = 1; t <= kTenants; ++t) {
    const double rps = t == kTenants ? base_rps * surge : base_rps;
    const auto spacing = static_cast<sim::Duration>(
        static_cast<double>(sim::kSecond) / rps);
    const auto count =
        static_cast<std::uint64_t>(sim::to_seconds(duration) * rps);
    const auto tenant = static_cast<net::TenantId>(t);
    for (std::uint64_t i = 0; i < count; ++i) {
      bed.loop.post_at(
          start + static_cast<sim::Duration>(i) * spacing,
          [&bed, mesh, &recorders, &sampler, traces, tenant,
           &request_index] {
            mesh::RequestOptions opts = bed.request(false);
            opts.tenant = tenant;
            opts.trace = true;
            // Head-based: the sampling decision is made when the request
            // is issued, in event-loop order.
            const bool sampled = sampler.should_sample(tenant);
            const std::uint64_t index = request_index++;
            mesh->send_request(
                opts,
                [&recorders, traces, sampled, index](mesh::RequestResult r) {
                  if (!r.trace) return;
                  recorders.record(*r.trace, r.status);
                  if (sampled) traces->add(*r.trace, index, r.status);
                });
          });
    }
  }
  bed.loop.run();

  const telemetry::FairnessReport fairness =
      telemetry::FairnessReport::from_registry(*registry);
  runner::RunResult result;
  for (const auto& tenant : fairness.tenants) {
    const std::string prefix =
        "t" + std::to_string(net::id_value(tenant.tenant)) + ".";
    result.set(prefix + "requests", static_cast<double>(tenant.requests));
    result.set(prefix + "p50_us", tenant.p50_us);
    result.set(prefix + "p99_us", tenant.p99_us);
    result.set(prefix + "share", tenant.share);
    result.set(prefix + "error_rate", tenant.error_rate);
  }
  result.set("jain", fairness.jain_index);
  const auto suspects =
      telemetry::RootCauseAnalyzer().pinpoint_tenants(fairness);
  result.set("suspects", static_cast<double>(suspects.size()));
  result.set("suspect_tenant",
             suspects.empty() ? 0.0
                              : static_cast<double>(
                                    net::id_value(suspects.front().tenant)));
  result.set("sampled_traces", static_cast<double>(traces->size()));
  // Attach the raw registry and traces so the reducer can fold seed
  // sweeps (merge_group_registries) and --trace-out can export.
  result.registry = registry;
  result.traces = traces;
  return result;
}

// ---------------------------------------------------------------------------
// resilience_retry_storm — a whole service dies and its clients' retry
// layer turns every lost request into 3 timed-out attempts, burning shared
// proxy capacity that an innocent victim tenant needs. With the circuit
// breaker armed the storm service is fast-failed after a handful of
// consecutive errors, the amplification collapses, and the victim's p99
// during the outage stays near its pre-fault value. Variants: breaker-off
// (budget-only baseline) vs breaker-on.

inline runner::RunResult resilience_retry_storm(const runner::RunSpec& spec) {
  const bool breaker_on = spec.override_or("breaker", 0) != 0;
  Testbed::Options options;
  options.app_service_time = sim::microseconds(100);
  options.node_cores = 4;  // shared capacity the storm can actually exhaust
  options.seed = spec.seed;
  Testbed bed(options);
  bed.build_canal();

  if (breaker_on) {
    proxy::ResilienceConfig config;
    proxy::BreakerConfig breaker;
    breaker.consecutive_errors = 5;
    breaker.base_ejection_time = sim::milliseconds(500);
    config.breaker = breaker;
    bed.canal->enable_resilience(config);
  }

  // The storm service loses every pod for the whole fault window.
  k8s::Service& storm_service = *bed.services.back();
  k8s::Service& victim_service = *bed.services[1];
  sim::FaultPlan plan;
  for (const k8s::Pod* pod : storm_service.endpoints) {
    plan.kill_pod_for(detail::kFaultStart,
                      static_cast<std::uint64_t>(pod->id()),
                      detail::kFaultEnd - detail::kFaultStart);
  }
  core::FaultInjector injector(bed.loop, bed.cluster, bed.gateway.get());
  injector.arm(plan);

  const mesh::RetryPolicy policy = detail::fault_retry_policy(true);
  mesh::RetryBudget storm_budget(0.5, 10);
  mesh::RetryBudget victim_budget(0.5, 10);
  detail::FaultRun storm_run;
  detail::FaultRun victim_run;
  sim::Rng storm_rng(0xe57 + spec.seed);
  sim::Rng victim_rng(0x71c + spec.seed);

  const sim::TimePoint start = bed.loop.now();
  const auto drive = [&](net::ServiceId dst, net::TenantId tenant, double rps,
                         detail::FaultRun& run, sim::Rng& rng,
                         mesh::RetryBudget& budget) {
    const auto spacing = static_cast<sim::Duration>(
        static_cast<double>(sim::kSecond) / rps);
    const auto count = static_cast<std::uint64_t>(
        sim::to_seconds(detail::kFaultRunLength) * rps);
    for (std::uint64_t i = 0; i < count; ++i) {
      const sim::TimePoint send_time =
          start + static_cast<sim::Duration>(i) * spacing;
      bed.loop.post_at(send_time, [&bed, &policy, &run, &rng, &budget,
                                   dst, tenant, send_time] {
        mesh::RequestOptions opts = bed.request(false);
        opts.dst_service = dst;
        opts.tenant = tenant;
        detail::Window& window = run.at(send_time);
        ++window.issued;
        bed.canal->send_request_with_retries(
            opts, policy, rng,
            [&window](mesh::RequestResult r) {
              ++window.done;
              window.attempts += r.attempts;
              if (r.timed_out) ++window.timeouts;
              if (r.ok()) {
                ++window.ok;
                window.ok_latency_us.record(sim::to_microseconds(r.latency));
              }
            },
            &budget);
      });
    }
  };
  drive(victim_service.id, static_cast<net::TenantId>(1),
        spec.override_or("victim_rps", 300.0), victim_run, victim_rng,
        victim_budget);
  drive(storm_service.id, static_cast<net::TenantId>(2),
        spec.override_or("storm_rps", 2000.0), storm_run, storm_rng,
        storm_budget);
  bed.loop.run_for(detail::kFaultRunLength + sim::milliseconds(500));

  runner::RunResult result;
  result.set("victim_p99_pre_us", victim_run.before.p99_us());
  result.set("victim_p99_fault_us", victim_run.during.p99_us());
  result.set("victim_p99_post_us", victim_run.after.p99_us());
  result.set("victim_ok_fault", victim_run.during.success());
  result.set("storm_ok_fault", storm_run.during.success());
  result.set("storm_tries_fault",
             storm_run.during.done == 0
                 ? 0.0
                 : static_cast<double>(storm_run.during.attempts) /
                       static_cast<double>(storm_run.during.done));
  result.set("storm_ok_post", storm_run.after.success());
  if (proxy::ResilienceChain* chain = bed.canal->resilience()) {
    const proxy::CircuitBreaker* breaker = chain->breaker(storm_service.id);
    result.set("breaker_opens",
               breaker == nullptr
                   ? 0.0
                   : static_cast<double>(breaker->opens()));
    result.set("breaker_rejected",
               static_cast<double>(chain->breaker_rejected_total()));
    auto registry = std::make_shared<telemetry::MetricsRegistry>();
    chain->publish_metrics(*registry);
    result.registry = registry;
  } else {
    result.set("breaker_opens", 0.0);
    result.set("breaker_rejected", 0.0);
  }
  return result;
}

// ---------------------------------------------------------------------------
// resilience_qod — "query of death": one pod in the target service answers
// every request with a 5xx. Without outlier ejection it keeps its
// round-robin share of traffic and the error rate sits at roughly
// 1/pods forever; with ejection the outlier detector removes it from
// every LB set after `consecutive_errors` failures and the error rate
// after the detection window drops to ~0 — while max_ejection_percent
// keeps the bound on capacity removal.

inline runner::RunResult resilience_qod(const runner::RunSpec& spec) {
  const bool ejection_on = spec.override_or("ejection", 0) != 0;
  Testbed::Options options;
  options.app_service_time = sim::microseconds(100);
  options.seed = spec.seed;
  Testbed bed(options);

  // The poisoned pod joins the target service before the mesh installs, so
  // every plane's endpoint pools include it.
  k8s::Service& target = *bed.services.back();
  k8s::AppProfile poison;
  poison.fast_fraction = 1.0;
  poison.fast_service_mean = options.app_service_time;
  poison.sigma = 0.05;
  poison.app_error_rate = 1.0;
  bed.cluster.add_pod(target, poison).set_phase(k8s::PodPhase::kRunning);
  bed.build_canal();

  if (ejection_on) {
    proxy::ResilienceConfig config;
    proxy::OutlierConfig outlier;
    outlier.consecutive_errors = 5;
    outlier.base_ejection_time = sim::seconds(5);
    outlier.max_ejection_percent = 50;
    config.outlier = outlier;
    bed.canal->enable_resilience(config);
  }

  mesh::RetryPolicy policy;  // single attempt: errors stay visible
  policy.max_attempts = 1;
  policy.per_try_timeout = sim::milliseconds(250);
  sim::Rng retry_rng(0x90d + spec.seed);
  const double rps = spec.override_or("rps", 1000.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_s", 2.0) * sim::kSecond);
  // Detection happens within the first few servings of the poisoned pod;
  // everything after this boundary should be clean with ejection on.
  const sim::Duration detect_window = sim::milliseconds(200);

  struct Phase {
    std::uint64_t done = 0;
    std::uint64_t errors = 0;
  };
  Phase early;
  Phase late;
  const sim::TimePoint start = bed.loop.now();
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) / rps);
  const auto count =
      static_cast<std::uint64_t>(sim::to_seconds(duration) * rps);
  for (std::uint64_t i = 0; i < count; ++i) {
    const sim::TimePoint send_time =
        start + static_cast<sim::Duration>(i) * spacing;
    bed.loop.post_at(send_time, [&bed, &policy, &retry_rng, &early, &late,
                                 start, send_time, detect_window] {
      mesh::RequestOptions opts = bed.request(false);
      Phase& phase =
          send_time - start < detect_window ? early : late;
      bed.canal->send_request_with_retries(
          opts, policy, retry_rng, [&phase](mesh::RequestResult r) {
            ++phase.done;
            if (r.status >= 500) ++phase.errors;
          });
    });
  }
  bed.loop.run();

  runner::RunResult result;
  const auto rate = [](const Phase& phase) {
    return phase.done == 0 ? 0.0
                           : static_cast<double>(phase.errors) /
                                 static_cast<double>(phase.done);
  };
  result.set("early_error_rate", rate(early));
  result.set("late_error_rate", rate(late));
  result.set("errors_total",
             static_cast<double>(early.errors + late.errors));
  if (proxy::ResilienceChain* chain = bed.canal->resilience()) {
    result.set("ejections", static_cast<double>(chain->ejections_total()));
    result.set("readmissions",
               static_cast<double>(chain->readmissions_total()));
    const proxy::OutlierDetector* outlier = chain->outlier(target.id);
    result.set("ejected_now",
               outlier == nullptr
                   ? 0.0
                   : static_cast<double>(outlier->ejected_count()));
    auto registry = std::make_shared<telemetry::MetricsRegistry>();
    chain->publish_metrics(*registry);
    result.registry = registry;
  } else {
    result.set("ejections", 0.0);
    result.set("readmissions", 0.0);
    result.set("ejected_now", 0.0);
  }
  return result;
}

// ---------------------------------------------------------------------------
// resilience_ratelimit — the noisy-neighbor surge, answered with per-tenant
// token buckets instead of analytics alone. Four tenants share the canal
// dataplane; the surge tenant offers ~10x the others' load. With the
// limiter on, each tenant's bucket admits ~1.5x the base rate, the surge
// spills as deterministic 429s, and the victims' p99 recovers. Extends
// BENCH_fairness's noisy_neighbor with an enforcement stage (golden lives
// in BENCH_resilience.json).

inline runner::RunResult resilience_ratelimit(const runner::RunSpec& spec) {
  const bool limit_on = spec.override_or("limit", 0) != 0;
  Testbed::Options options;
  options.app_service_time = sim::microseconds(100);
  options.seed = spec.seed;
  Testbed bed(options);
  bed.build_canal();

  constexpr int kTenants = 4;
  const double base_rps = spec.override_or("rps", 300.0);
  const double surge = spec.override_or("surge", 10.0);
  if (limit_on) {
    proxy::ResilienceConfig config;
    proxy::RateLimitConfig limit;
    limit.tokens_per_second = base_rps * 1.5;
    limit.burst = 50.0;
    config.rate_limit = limit;
    bed.canal->enable_resilience(config);
  }

  auto registry = std::make_shared<telemetry::MetricsRegistry>();
  telemetry::TenantRecorderSet recorders(*registry, {{"dataplane", "canal"}});
  mesh::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.per_try_timeout = sim::milliseconds(250);
  sim::Rng retry_rng(0x11e + spec.seed);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_s", 2.0) * sim::kSecond);
  std::uint64_t rate_limited = 0;
  const sim::TimePoint start = bed.loop.now();
  for (int t = 1; t <= kTenants; ++t) {
    const double rps = t == kTenants ? base_rps * surge : base_rps;
    const auto spacing = static_cast<sim::Duration>(
        static_cast<double>(sim::kSecond) / rps);
    const auto count =
        static_cast<std::uint64_t>(sim::to_seconds(duration) * rps);
    const auto tenant = static_cast<net::TenantId>(t);
    for (std::uint64_t i = 0; i < count; ++i) {
      bed.loop.post_at(
          start + static_cast<sim::Duration>(i) * spacing,
          [&bed, &recorders, &policy, &retry_rng, &rate_limited, tenant] {
            mesh::RequestOptions opts = bed.request(false);
            opts.tenant = tenant;
            opts.trace = true;
            bed.canal->send_request_with_retries(
                opts, policy, retry_rng,
                [&recorders, &rate_limited](mesh::RequestResult r) {
                  if (r.rate_limited) ++rate_limited;
                  if (r.trace) recorders.record(*r.trace, r.status);
                });
          });
    }
  }
  bed.loop.run();

  const telemetry::FairnessReport fairness =
      telemetry::FairnessReport::from_registry(*registry);
  runner::RunResult result;
  for (const auto& tenant : fairness.tenants) {
    const std::string prefix =
        "t" + std::to_string(net::id_value(tenant.tenant)) + ".";
    result.set(prefix + "requests", static_cast<double>(tenant.requests));
    result.set(prefix + "p99_us", tenant.p99_us);
    result.set(prefix + "error_rate", tenant.error_rate);
  }
  result.set("jain", fairness.jain_index);
  result.set("rate_limited", static_cast<double>(rate_limited));
  if (proxy::ResilienceChain* chain = bed.canal->resilience()) {
    chain->publish_metrics(*registry);
  }
  result.registry = registry;
  return result;
}

// ---------------------------------------------------------------------------
// selfperf — how fast the SIMULATOR itself runs (wall-clock), as opposed to
// every other scenario, which measures the simulated systems. Simulated
// counters (requests, events, fastpath hits, heap allocations) are
// deterministic and byte-diffed golden material; wall-clock readings vary
// with machine load and go into the JSON under the reserved "wall." key
// prefix, which the determinism gate strips before diffing (they are still
// committed, so the perf trajectory — wall.events_per_sec_per_core — is
// visible in history and anchors check.sh's regression gate).

namespace detail {

struct SelfPerfCounters {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t fastpath_hits = 0;
  std::uint64_t fastpath_misses = 0;
  std::uint64_t allocs = 0;
};

using FastpathProbe =
    std::function<std::pair<std::uint64_t, std::uint64_t>()>;

/// Steady-state pinned-flow driver: cycles a small pool of pinned source
/// ports so every flow after the first use of its port is a repeat request
/// on an established connection (the fastpath cache's common case).
inline SelfPerfCounters drive_pinned(Testbed& bed, mesh::MeshDataplane& mesh,
                                     double rps, sim::Duration duration,
                                     const FastpathProbe& probe) {
  constexpr std::uint16_t kPortBase = 50'000;
  constexpr std::uint64_t kPortPool = 64;
  SelfPerfCounters result;
  const auto before = probe ? probe() : std::make_pair(std::uint64_t{0},
                                                       std::uint64_t{0});
  const sim::TimePoint sim_start = bed.loop.now();
  const auto spacing =
      static_cast<sim::Duration>(static_cast<double>(sim::kSecond) / rps);
  const auto count =
      static_cast<std::uint64_t>(sim::to_seconds(duration) * rps);
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < count; ++i) {
    bed.loop.post_at(
        sim_start + static_cast<sim::Duration>(i) * spacing,
        [&bed, &mesh, &result, i] {
          mesh::RequestOptions opts = bed.request(false);
          opts.src_port =
              static_cast<std::uint16_t>(kPortBase + i % kPortPool);
          opts.new_connection = i < kPortPool;  // first use of each port
          opts.close_after = false;
          mesh.send_request(opts, [&result](mesh::RequestResult r) {
            ++result.requests;
            if (r.ok()) ++result.ok;
          });
        });
  }
  // Allocation discipline of the drain itself: global operator-new calls
  // while the event loop runs the whole workload. A run executes on one
  // thread, so the thread-local counter delta isolates it even under the
  // parallel runner; the count is a pure function of the code path and is
  // golden material (unlike wall-clock).
  const std::uint64_t allocs_before = sim::alloc_count();
  result.events = bed.loop.run();
  result.allocs = sim::alloc_count() - allocs_before;
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       wall_end - wall_start).count();
  result.sim_seconds = sim::to_seconds(bed.loop.now() - sim_start);
  if (probe) {
    const auto after = probe();
    result.fastpath_hits = after.first - before.first;
    result.fastpath_misses = after.second - before.second;
  }
  return result;
}

inline std::pair<std::uint64_t, std::uint64_t> sum_gateway(
    core::MeshGateway& gw) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (auto* backend : gw.all_backends()) {
    hits += backend->fastpath_hits();
    misses += backend->fastpath_misses();
  }
  return {hits, misses};
}

}  // namespace detail

inline runner::RunResult selfperf(const runner::RunSpec& spec) {
  const double rps = spec.override_or("rps", 2000.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_s", 10.0) * sim::kSecond);
  // --repeat N: wall-clock readings become medians over N independent
  // runs (fresh testbed each), damping scheduler noise. Simulated
  // counters are identical across repeats (same seed, same code path), so
  // the deterministic metrics come from the first run.
  const int repeats =
      std::max(1, static_cast<int>(spec.override_or("repeat", 1.0)));

  const auto run_once = [&]() -> detail::SelfPerfCounters {
    Testbed::Options options;
    options.seed = spec.seed;
    Testbed bed(options);
    if (spec.variant == "nomesh") {
      bed.build_nomesh();
      return detail::drive_pinned(bed, *bed.nomesh, rps, duration, nullptr);
    }
    if (spec.variant == "istio") {
      bed.build_istio();
      auto* engine = bed.istio->sidecar_engine(bed.client()->id());
      return detail::drive_pinned(bed, *bed.istio, rps, duration, [engine] {
        return std::make_pair(engine->fastpath_hits(),
                              engine->fastpath_misses());
      });
    }
    if (spec.variant == "ambient") {
      bed.build_ambient();
      auto* ztunnel = bed.ambient->ztunnel_engine(bed.client()->node());
      auto* waypoint = bed.ambient->waypoint_engine(bed.target_service());
      return detail::drive_pinned(
          bed, *bed.ambient, rps, duration, [ztunnel, waypoint] {
            return std::make_pair(
                ztunnel->fastpath_hits() + waypoint->fastpath_hits(),
                ztunnel->fastpath_misses() + waypoint->fastpath_misses());
          });
    }
    if (spec.variant == "canal") {
      bed.build_canal();
      auto* gateway = bed.gateway.get();
      return detail::drive_pinned(bed, *bed.canal, rps, duration,
                                  [gateway] {
                                    return detail::sum_gateway(*gateway);
                                  });
    }
    if (spec.variant == "proxyless") {
      // Proxyless shares the gateway substrate but has no user-side
      // proxies.
      core::GatewayConfig config;
      auto gateway = std::make_unique<core::MeshGateway>(
          bed.loop, config, sim::Rng(options.seed + 3));
      gateway->add_az(bed.options.gateway_backends);
      core::ProxylessMesh proxyless(bed.loop, bed.cluster, *gateway,
                                    core::ProxylessMesh::Config{},
                                    sim::Rng(options.seed + 5));
      proxyless.install();
      auto* gw = gateway.get();
      return detail::drive_pinned(bed, proxyless, rps, duration, [gw] {
        return detail::sum_gateway(*gw);
      });
    }
    throw std::runtime_error("selfperf: unknown variant " + spec.variant);
  };

  const detail::SelfPerfCounters counters = run_once();
  std::vector<double> walls = {counters.wall_ms};
  for (int r = 1; r < repeats; ++r) walls.push_back(run_once().wall_ms);
  std::sort(walls.begin(), walls.end());
  const double wall_median =
      walls.size() % 2 == 1
          ? walls[walls.size() / 2]
          : 0.5 * (walls[walls.size() / 2 - 1] + walls[walls.size() / 2]);
  double wall_var = 0.0;
  if (walls.size() > 1) {
    double mean = 0.0;
    for (const double w : walls) mean += w;
    mean /= static_cast<double>(walls.size());
    for (const double w : walls) wall_var += (w - mean) * (w - mean);
    wall_var /= static_cast<double>(walls.size() - 1);
  }

  const std::uint64_t probes =
      counters.fastpath_hits + counters.fastpath_misses;
  runner::RunResult result;
  result.set("requests", static_cast<double>(counters.requests));
  result.set("ok", static_cast<double>(counters.ok));
  result.set("events", static_cast<double>(counters.events));
  result.set("sim_seconds", counters.sim_seconds);
  result.set("fastpath_hits", static_cast<double>(counters.fastpath_hits));
  result.set("fastpath_misses",
             static_cast<double>(counters.fastpath_misses));
  result.set("fastpath_hit_rate",
             probes == 0 ? 0.0
                         : static_cast<double>(counters.fastpath_hits) /
                               static_cast<double>(probes));
  // Heap discipline of the drain: deterministic (a pure function of the
  // code path, never of addresses or timing), so golden material like the
  // simulated counters above.
  result.set("allocs", static_cast<double>(counters.allocs));
  result.set("allocs_per_request",
             counters.requests == 0
                 ? 0.0
                 : static_cast<double>(counters.allocs) /
                       static_cast<double>(counters.requests));
  // Wall-clock readings vary with machine load: emitted under the
  // reserved "wall." prefix, which scripts/check.sh strips from the
  // determinism diff. events_per_sec_per_core is the perf-trajectory
  // headline (each run drains on exactly one worker thread, so the wall
  // rate IS the per-core rate); the committed value also anchors the
  // >10%-drop selfperf regression gate.
  result.set("wall.repeats", static_cast<double>(repeats));
  result.set("wall.wall_ms_median", wall_median);
  result.set("wall.wall_ms_var", wall_var);
  result.set("wall.events_per_sec_per_core",
             wall_median <= 0.0
                 ? 0.0
                 : static_cast<double>(counters.events) * 1e3 / wall_median);
  return result;
}

// ---------------------------------------------------------------------------
// region_scale — the paper's region-scale operating point (§6): >= 1000 VMs
// and >= 1M RPS aggregate across 8 AZ-sized clusters, each a ShardedSim
// domain running the real canal dataplane, with the Table 3 tenant
// population shaping per-flow tenancy. The `shards` override picks how
// many partitions (worker threads) host the domains; every metric outside
// the "wall." prefix is byte-identical at any value of it — which is
// exactly what check.sh's region determinism gate pins.

inline runner::RunResult region_scale(const runner::RunSpec& spec) {
  if (spec.variant != "canal") {
    throw std::runtime_error("region_scale: unknown variant " +
                             spec.variant);
  }
  RegionOptions options;
  options.seed = spec.seed;
  options.azs =
      static_cast<std::size_t>(spec.override_or("azs", 8));
  options.nodes_per_az = static_cast<std::size_t>(
      spec.override_or("nodes_per_az", 140));
  options.generators_per_az = static_cast<std::size_t>(
      spec.override_or("generators_per_az", 64));
  options.aggregate_rps = spec.override_or("rps", 1'000'000.0);
  options.duration = static_cast<sim::Duration>(
      spec.override_or("duration_ms", 300.0) * 1e6);
  options.tenants =
      static_cast<std::size_t>(spec.override_or("tenants", 200));
  options.shards = static_cast<std::size_t>(
      std::max(1.0, spec.override_or("shards", 1)));

  std::unique_ptr<runner::PoolShardRunner> pool;
  if (options.shards > 1) {
    pool = std::make_unique<runner::PoolShardRunner>(options.shards);
  }
  const RegionRun run = run_region(options, pool.get());

  const auto pct = [](const sim::Histogram& h, double p) {
    return h.empty() ? 0.0 : h.percentile(p);
  };
  runner::RunResult result;
  result.set("vms", static_cast<double>(run.vms));
  result.set("pods", static_cast<double>(run.pods));
  result.set("tenants", static_cast<double>(run.tenants));
  result.set("table3_l7", run.adoption.l7);
  result.set("table3_l7_routing", run.adoption.l7_routing);
  result.set("table3_l7_security", run.adoption.l7_security);
  result.set("aggregate_rps", options.aggregate_rps);
  result.set("requests", static_cast<double>(run.sent));
  result.set("ok", static_cast<double>(run.ok));
  result.set("p50_us", pct(run.intra_latency_us, 50));
  result.set("p99_us", pct(run.intra_latency_us, 99));
  result.set("cross_p50_us", pct(run.cross_latency_us, 50));
  result.set("cross_p99_us", pct(run.cross_latency_us, 99));
  result.set("lookahead_us",
             static_cast<double>(run.lookahead) / 1e3);
  result.set("events", static_cast<double>(run.engine.events));
  result.set("rounds", static_cast<double>(run.engine.rounds));
  result.set("cross_shard_messages",
             static_cast<double>(run.engine.messages));
  // Wall-clock (and the shard/thread layout that shapes it) varies with
  // the machine: "wall." prefix, stripped by the determinism diff. The
  // speedup bound is busy-time critical-path math — what a machine with
  // >= shards free cores converges to — reported alongside the measured
  // wall so single-core CI still records the parallelism the partition
  // exposes.
  result.set("wall.wall_ms", run.wall_ms);
  result.set("wall.shards", static_cast<double>(run.shards));
  result.set("wall.busy_ms_sum", run.engine.busy_ms_sum());
  result.set("wall.busy_ms_max", run.engine.busy_ms_max());
  result.set("wall.speedup_bound",
             run.engine.busy_ms_max() <= 0.0
                 ? 1.0
                 : run.engine.busy_ms_sum() / run.engine.busy_ms_max());
  return result;
}

// ---------------------------------------------------------------------------
// config_churn_storm — control-plane dynamics under load: a rolling storm
// of config epochs pushed through the modeled propagation layer (build
// CPU + southbound bandwidth, k8s::ConfigPropagation) while an open-loop
// workload runs. Measures what the zero-time config push hid: per-epoch
// convergence time, the stale-config window (max epoch skew observed at
// apply time — must be nonzero, proxies genuinely disagree mid-rollout),
// and tail latency under churn. Variants differ in proxy population:
// istio pushes O(pods) full configs, ambient O(waypoints + ztunnels),
// canal O(gateway backends).

inline runner::RunResult config_churn_storm(const runner::RunSpec& spec) {
  Testbed::Options options;
  options.seed = spec.seed;
  Testbed bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "canal") {
    bed.build_canal();
    mesh = bed.canal.get();
  } else if (spec.variant == "ambient") {
    bed.build_ambient();
    mesh = bed.ambient.get();
  } else if (spec.variant == "istio") {
    bed.build_istio();
    mesh = bed.istio.get();
  } else {
    throw std::runtime_error("config_churn_storm: unknown variant " +
                             spec.variant);
  }

  k8s::ControlPlaneProfile profile;
  k8s::ConfigPropagation propagation(bed.loop, profile);

  const auto pushes = static_cast<int>(spec.override_or("pushes", 8));
  const auto period = static_cast<sim::Duration>(
      spec.override_or("push_period_ms", 50.0) * 1e6);
  std::uint64_t max_skew = 0;
  std::uint64_t bytes_pushed = 0;
  std::size_t targets_per_epoch = 0;
  const sim::TimePoint start = bed.loop.now();
  for (int p = 0; p < pushes; ++p) {
    bed.loop.post_at(start + sim::milliseconds(25) + p * period, [&] {
      // Sampling skew inside the apply callback catches the window at its
      // widest: the first proxy of epoch N has just acked while the rest
      // still hold N-1 (or older, if pushes overlap).
      auto targets = mesh->config_epoch_targets([&](proxy::ProxyEngine&) {
        max_skew = std::max(max_skew, propagation.epoch_skew());
      });
      targets_per_epoch = targets.size();
      propagation.push_epoch(std::move(targets),
                             [&](k8s::EpochReport report) {
                               bytes_pushed += report.bytes_pushed;
                             });
    });
  }

  const double rps = spec.override_or("rps", 2000.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_ms", 500.0) * 1e6);
  const LoadResult load = drive_open_loop(bed, *mesh, rps, duration);

  const sim::Histogram& conv = propagation.convergence_ms();
  runner::RunResult result;
  result.set("pushes", static_cast<double>(pushes));
  result.set("targets_per_epoch", static_cast<double>(targets_per_epoch));
  result.set("bytes_pushed", static_cast<double>(bytes_pushed));
  result.set("convergence_ms_p50", conv.empty() ? 0.0 : conv.percentile(50));
  result.set("convergence_ms_max", conv.empty() ? 0.0 : conv.percentile(100));
  result.set("max_epoch_skew", static_cast<double>(max_skew));
  result.set("applies", static_cast<double>(propagation.applies_total()));
  result.set("superseded",
             static_cast<double>(propagation.superseded_total()));
  result.set("converged", propagation.converged() ? 1.0 : 0.0);
  result.set("requests", static_cast<double>(load.sent));
  result.set("ok", static_cast<double>(load.ok));
  result.set("p50_us", load.latency_us.percentile(50));
  result.set("p99_us", load.latency_us.percentile(99));
  return result;
}

// ---------------------------------------------------------------------------
// cert_rotation_wave — the §2.1 rolling re-sign: every pod identity's
// certificate re-issued through the batched asymmetric accelerator
// (staggered wave -> Fig 25 batch/flush dynamics), then the fresh cert
// bytes distributed to the mesh's proxies as a config epoch through the
// propagation layer, all while an open-loop workload runs. Rotation uses
// its own CpuSet and southbound stack, so the dataplane percentiles stay
// untouched — the cost shows up as makespan + distribution convergence.

inline runner::RunResult cert_rotation_wave(const runner::RunSpec& spec) {
  Testbed::Options options;
  options.seed = spec.seed;
  Testbed bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "canal") {
    bed.build_canal();
    mesh = bed.canal.get();
  } else if (spec.variant == "istio") {
    bed.build_istio();
    mesh = bed.istio.get();
  } else {
    throw std::runtime_error("cert_rotation_wave: unknown variant " +
                             spec.variant);
  }

  sim::Rng rng(spec.seed + 7);
  sim::CpuSet crypto_cpu(bed.loop, 4);
  crypto::AsymmetricAccelerator accel(bed.loop, crypto_cpu,
                                      crypto::AccelMode::kBatched);
  crypto::CertificateAuthority ca("bench-ca", rng);
  k8s::ControlPlaneProfile profile;
  k8s::ConfigPropagation propagation(bed.loop, profile);

  std::vector<std::string> identities;
  for (const auto& pod : bed.cluster.pods()) {
    identities.push_back("spiffe://tenant-1/ns/default/sa/pod-" +
                         std::to_string(net::id_value(pod->id())));
  }

  crypto::RotationOptions rotation_options;
  rotation_options.stagger = static_cast<sim::Duration>(
      spec.override_or("stagger_us", 100.0) * 1e3);
  crypto::CertRotationWave wave(bed.loop, ca, rotation_options);

  std::uint64_t rotated = 0;
  std::uint64_t cert_bytes = 0;
  double makespan_ms = 0.0;
  std::uint64_t max_skew = 0;
  const sim::TimePoint start = bed.loop.now();
  bed.loop.post_at(start + sim::milliseconds(20), [&] {
    wave.run(identities, accel, rng, nullptr,
             [&](crypto::RotationReport report) {
               rotated = report.rotated;
               cert_bytes = report.cert_bytes;
               makespan_ms = sim::to_seconds(report.makespan) * 1e3;
               // Distribute the fresh certs: one epoch whose per-target
               // payload is the wave's cert bytes spread over the fleet.
               auto targets =
                   mesh->config_epoch_targets([&](proxy::ProxyEngine&) {
                     max_skew = std::max(max_skew, propagation.epoch_skew());
                   });
               const std::uint64_t per_target =
                   targets.empty() ? 0
                                   : report.cert_bytes / targets.size();
               for (auto& t : targets) t.target.config_bytes = per_target;
               propagation.push_epoch(std::move(targets));
             });
  });

  const double rps = spec.override_or("rps", 2000.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_ms", 500.0) * 1e6);
  const LoadResult load = drive_open_loop(bed, *mesh, rps, duration);

  const sim::Histogram& conv = propagation.convergence_ms();
  runner::RunResult result;
  result.set("identities", static_cast<double>(identities.size()));
  result.set("rotated", static_cast<double>(rotated));
  result.set("makespan_ms", makespan_ms);
  result.set("batches_flushed", static_cast<double>(accel.batches_flushed()));
  result.set("sign_p50_us", accel.op_latency_us().empty()
                                ? 0.0
                                : accel.op_latency_us().percentile(50));
  result.set("cert_bytes", static_cast<double>(cert_bytes));
  result.set("distribution_ms",
             conv.empty() ? 0.0 : conv.percentile(100));
  result.set("max_epoch_skew", static_cast<double>(max_skew));
  result.set("converged", propagation.converged() ? 1.0 : 0.0);
  result.set("requests", static_cast<double>(load.sent));
  result.set("ok", static_cast<double>(load.ok));
  result.set("p50_us", load.latency_us.percentile(50));
  result.set("p99_us", load.latency_us.percentile(99));
  return result;
}

// ---------------------------------------------------------------------------
// The §6 operations families (BENCH_ops.json). They drive Canal's
// operational machinery (gateway water-level sampling, precise scaling,
// in-phase migration, health-check aggregation) at production RPS through
// aggregate load injection, and record its decisions, not only the load.

/// "<stem><i>.", the key prefix of one row of an ops_* series. Built
/// piecewise: `"t" + std::to_string(t)` trips GCC 12's -Wrestrict false
/// positive (PR 105329) once inlined.
inline std::string row_prefix(const char* stem, std::size_t i) {
  std::string prefix = stem;
  prefix += std::to_string(i);
  prefix += '.';
  return prefix;
}

/// Injects `rps` of aggregate load for `service` over `window`, split
/// evenly across the backends the service is placed on.
inline void inject_spread(core::MeshGateway& gateway, net::ServiceId service,
                          double rps, sim::Duration window,
                          double new_session_fraction = 0.1,
                          double https_fraction = 0.5) {
  const auto placement = gateway.placement_of(service);
  for (auto* backend : placement) {
    backend->inject_load(service, rps / static_cast<double>(placement.size()),
                         window, new_session_fraction, https_fraction);
  }
}

/// Appends one `scale<i>.*` block per scaling decision: kind (0 = Reuse,
/// 1 = New), target backend, and alert/finish times in simulated seconds.
inline void scaling_event_metrics(runner::RunResult& out,
                                  const std::vector<core::ScalingEvent>&
                                      events) {
  out.set("scaling_events", static_cast<double>(events.size()));
  for (std::size_t i = 0; i < events.size(); ++i) {
    const core::ScalingEvent& event = events[i];
    const std::string prefix = row_prefix("scale", i);
    out.set(prefix + "kind", event.kind == core::ScaleKind::kReuse ? 0 : 1);
    out.set(prefix + "target",
            static_cast<double>(net::id_value(event.target_backend)));
    out.set(prefix + "alert_s", sim::to_seconds(event.alert_time));
    out.set(prefix + "finish_s", sim::to_seconds(event.finish_time));
  }
}

/// Appends a sampled gateway's session state, summed over its backends:
/// fastpath hits and misses, live sessions, and each service's
/// long-session gauge as `svc<i>.long_sessions`.
inline void gateway_session_metrics(runner::RunResult& out,
                                    core::MeshGateway& gateway,
                                    const std::vector<k8s::Service*>&
                                        services) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t live_sessions = 0;
  for (auto* backend : gateway.all_backends()) {
    hits += backend->fastpath_hits();
    misses += backend->fastpath_misses();
    for (std::size_t r = 0; r < backend->replica_count(); ++r) {
      live_sessions += backend->replica(r)->engine().sessions().size();
    }
  }
  out.set("gw_fastpath_hits", static_cast<double>(hits));
  out.set("gw_fastpath_misses", static_cast<double>(misses));
  out.set("gw_sessions_live", static_cast<double>(live_sessions));
  for (std::size_t s = 0; s < services.size(); ++s) {
    std::size_t long_sessions = 0;
    for (auto* backend : gateway.all_backends()) {
      long_sessions += backend->long_sessions(services[s]->id);
    }
    out.set(row_prefix("svc", s) + "long_sessions",
            static_cast<double>(long_sessions));
  }
}

// ops_surge_scaling — Fig 16: a noisy neighbour handled by precise
// scaling. Four services on six gateway backends sampled every second; the
// noisy service shares one backend with two victims. At 50 s the noisy
// service surges from 4k to 46k RPS, the backend alert fires, and the
// scaler extends the noisy service onto cold backends (Reuse) until the
// shared backend's CPU settles. Real probe requests to the victims measure
// their latency and errors through the incident; a 90 s tail of probes on
// one established connection follows. Metrics: the 10 s incident timeline
// `t<s>.*`, victim errors and scaling decisions, then the gateway state
// after the tail (fastpath hits/misses, live sessions, per-service
// long-session gauge).

inline runner::RunResult ops_surge_scaling(const runner::RunSpec& spec) {
  Testbed::Options options;
  options.services = 4;
  options.gateway_backends = 6;
  options.app_service_time = sim::microseconds(100);
  options.seed = spec.seed;
  Testbed bed(options);
  bed.build_canal();
  for (auto* backend : bed.gateway->all_backends()) {
    backend->start_sampling(sim::seconds(1));
  }

  const net::ServiceId noisy = bed.services[0]->id;
  const net::ServiceId victim1 = bed.services[1]->id;
  const net::ServiceId victim2 = bed.services[2]->id;
  core::GatewayBackend* shared = bed.gateway->placement_of(noisy).front();
  bed.gateway->extend_service(victim1, *shared);
  bed.gateway->extend_service(victim2, *shared);

  core::ScalerConfig scaler_config;
  scaler_config.alert_threshold = 0.7;
  scaler_config.reuse_delay_mean = sim::seconds(20);
  scaler_config.check_period = sim::seconds(5);
  core::PreciseScaler scaler(bed.loop, *bed.gateway, scaler_config,
                             sim::Rng(22 + spec.seed));
  scaler.start();

  // Victim probes queue on the same replica cores as the injected load.
  sim::TimeSeries victim_latency_ms;
  sim::PeriodicTimer prober(bed.loop, sim::milliseconds(500), [&] {
    mesh::RequestOptions opts = bed.request(false);
    opts.dst_service = victim1;
    bed.canal->send_request(opts, [&](mesh::RequestResult r) {
      victim_latency_ms.record(bed.loop.now(),
                               sim::to_milliseconds(r.latency));
    });
  });
  prober.start();
  std::uint64_t victim_errors = 0;
  sim::PeriodicTimer error_prober(bed.loop, sim::milliseconds(500), [&] {
    mesh::RequestOptions opts = bed.request(false);
    opts.dst_service = victim2;
    bed.canal->send_request(opts, [&](mesh::RequestResult r) {
      if (!r.ok()) ++victim_errors;
    });
  });
  error_prober.start();

  sim::PeriodicTimer load(bed.loop, sim::seconds(1), [&] {
    const double noisy_rps =
        sim::to_seconds(bed.loop.now()) < 50 ? 4000.0 : 46000.0;
    inject_spread(*bed.gateway, noisy, noisy_rps, sim::seconds(1));
    shared->inject_load(victim1, 1500.0, sim::seconds(1));
    shared->inject_load(victim2, 1000.0, sim::seconds(1));
  });
  load.start();

  runner::RunResult result;
  for (std::size_t t = 10; t <= 220; t += 10) {
    bed.loop.run_until(static_cast<sim::Duration>(t) * sim::kSecond);
    const sim::TimePoint now = bed.loop.now();
    const std::string prefix = row_prefix("t", t);
    result.set(prefix + "noisy_rps", shared->stats_for(noisy).rps(now));
    result.set(prefix + "victim_rps", shared->stats_for(victim1).rps(now));
    result.set(prefix + "backend_cpu",
               shared->cpu_utilization(sim::seconds(5)));
    result.set(prefix + "victim_latency_ms",
               victim_latency_ms.mean_in(now - sim::seconds(10), now));
  }
  prober.stop();
  error_prober.stop();
  scaler.stop();
  // The tail keeps load and sampling on, so the fastpath, the session
  // table and the long-session gauge (sessions older than a minute) have
  // a flow to track. It runs after the incident, which therefore stays
  // exactly the Fig 16 run.
  std::uint64_t pinned_probes = 0;
  sim::PeriodicTimer pinned_prober(bed.loop, sim::milliseconds(500), [&] {
    mesh::RequestOptions opts = bed.request(pinned_probes++ == 0);
    opts.dst_service = victim2;
    opts.src_port = 40'000;
    opts.close_after = false;
    bed.canal->send_request(opts, [&](mesh::RequestResult r) {
      if (!r.ok()) ++victim_errors;
    });
  });
  pinned_prober.start();
  bed.loop.run_until(bed.loop.now() + sim::seconds(90));
  pinned_prober.stop();
  load.stop();
  for (auto* backend : bed.gateway->all_backends()) backend->stop_sampling();
  bed.loop.run_until(bed.loop.now() + sim::seconds(5));

  result.set("victim_errors", static_cast<double>(victim_errors));
  const auto& events = scaler.events();
  result.set("alert_to_finish_s",
             events.empty() ? 0.0
                            : sim::to_seconds(events.front().finish_time -
                                              events.front().alert_time));
  scaling_event_metrics(result, events);
  gateway_session_metrics(result, *bed.gateway, bed.services);
  return result;
}

/// The hand-built world of ops_daily, ops_inphase, ops_idle_expiry and
/// ops_scaling: one gateway AZ of `backends`, one 8-core node, single-pod
/// services "svc-<i>", canal installed. Each component takes its own RNG
/// seed.
struct OpsWorld {
  OpsWorld(std::size_t backends, int service_count,
           std::uint64_t gateway_seed, std::uint64_t cluster_seed,
           std::uint64_t canal_seed,
           const core::GatewayConfig& gateway_config = {})
      : gateway(loop, gateway_config, sim::Rng(gateway_seed)),
        cluster(loop, static_cast<net::TenantId>(1), sim::Rng(cluster_seed)) {
    gateway.add_az(backends);
    cluster.add_node(static_cast<net::AzId>(0), 8);
    for (int i = 0; i < service_count; ++i) {
      k8s::Service& service = cluster.add_service("svc-" + std::to_string(i));
      cluster.add_pod(service, k8s::AppProfile{})
          .set_phase(k8s::PodPhase::kRunning);
      services.push_back(&service);
    }
    canal = std::make_unique<core::CanalMesh>(loop, cluster, gateway,
                                              core::CanalMesh::Config{},
                                              sim::Rng(canal_seed));
    canal->install();
  }

  sim::EventLoop loop;
  core::MeshGateway gateway;
  k8s::Cluster cluster;
  std::vector<k8s::Service*> services;
  std::unique_ptr<core::CanalMesh> canal;
};

// ops_daily — Fig 20: a day of live operations on a 6-backend gateway
// sampled every 30 s, with the scaler armed. Four services follow a
// diurnal curve; ~0.2% of requests are user-side errors (the paper: most
// error codes originate in the user's own services). A rolling version
// update, an in-phase scatter and a lossless sandbox migration start as
// hours 3, 11 and 15 begin. Metrics: the hourly `h<N>.*` RPS and
// error-code series, then the scaling decisions.

inline runner::RunResult ops_daily(const runner::RunSpec& spec) {
  const std::uint64_t seed = 800 + spec.seed;
  OpsWorld world(6, 4, seed, seed + 8, seed + 10);
  core::MeshGateway& gateway = world.gateway;
  const std::vector<k8s::Service*>& services = world.services;
  for (auto* backend : gateway.all_backends()) {
    backend->start_sampling(sim::seconds(30));
  }
  core::ScalerConfig scaler_config;
  scaler_config.check_period = sim::seconds(30);
  core::PreciseScaler scaler(world.loop, gateway, scaler_config,
                             sim::Rng(seed + 20));
  scaler.start();
  core::MigrationController migrations(world.loop, gateway);

  sim::Rng err_rng(seed + 22);
  sim::TimeSeries rps_series;
  sim::TimeSeries error_series;
  sim::PeriodicTimer load(world.loop, sim::seconds(30), [&] {
    const double t = sim::to_seconds(world.loop.now());
    const double phase =
        std::sin((std::fmod(t, 86400.0) / 86400.0 - 0.25) * 2 * 3.14159265);
    double total_rps = 0;
    for (k8s::Service* service : services) {
      const double rps = std::max(300.0, 5000.0 * (1.0 + 0.8 * phase));
      total_rps += rps;
      inject_spread(gateway, service->id, rps, sim::seconds(30));
    }
    rps_series.record(world.loop.now(), total_rps);
    error_series.record(world.loop.now(),
                        total_rps *
                            std::max(0.0, err_rng.normal(0.002, 0.0004)));
  });
  load.start();

  runner::RunResult result;
  for (std::size_t hour = 1; hour <= 24; ++hour) {
    if (hour == 3) {
      result.note("h3.operation", "version update (rolling, 4h)");
      for (auto* backend : gateway.all_backends()) {
        for (std::size_t r = 0; r < backend->replica_count(); ++r) {
          backend->drain_replica(backend->replica(r)->id());
          backend->replica(r)->recover();
        }
      }
    } else if (hour == 11) {
      result.note("h11.operation", "service migration (in-phase scatter)");
      core::GatewayBackend* source =
          gateway.placement_of(services[0]->id).front();
      for (auto* target : gateway.backends_in(source->az())) {
        if (target != source && !target->hosts(services[1]->id)) {
          gateway.extend_service(services[1]->id, *target);
          break;
        }
      }
    } else if (hour == 15) {
      result.note("h15.operation", "lossless sandbox migration");
      migrations.migrate_lossless(services[3]->id, static_cast<net::AzId>(0));
    }
    world.loop.run_until(static_cast<sim::Duration>(hour) * sim::hours(1));
    const sim::TimePoint now = world.loop.now();
    const double rps = rps_series.mean_in(now - sim::hours(1), now);
    const double errors = error_series.mean_in(now - sim::hours(1), now);
    const std::string prefix = row_prefix("h", hour);
    result.set(prefix + "total_rps", rps);
    result.set(prefix + "error_rps", errors);
    result.set(prefix + "error_rate", rps > 0 ? errors / rps : 0.0);
  }
  load.stop();
  scaler.stop();
  for (auto* backend : gateway.all_backends()) backend->stop_sampling();
  scaling_event_metrics(result, scaler.events());
  return result;
}

// ops_inphase — §6.3: traffic migration for in-phase services. Three
// diurnal "consumer" services pile onto one backend and peak together;
// two off-phase "batch" services elsewhere give the HWHM target selection
// real choices. After a day of history the pattern monitor evaluates once
// at the day-2 midday peak, picks the high-RPS (HTTPS-weighted) services
// and scatters them to complementary backends. Metrics: the hot backend's
// hourly-peak utilization on day 1 and day 3, then each executed migration
// `migration<i>.*` (service index, source and target backend ids,
// weighted RPS).

inline runner::RunResult ops_inphase(const runner::RunSpec& spec) {
  const std::uint64_t seed = 7000 + spec.seed;
  OpsWorld world(8, 5, seed, seed + 2, seed + 4);
  core::MeshGateway& gateway = world.gateway;
  const std::vector<k8s::Service*>& services = world.services;
  core::GatewayBackend* hot = gateway.placement_of(services[0]->id).front();
  gateway.extend_service(services[1]->id, *hot);
  gateway.extend_service(services[2]->id, *hot);
  for (auto* backend : gateway.all_backends()) {
    backend->start_sampling(sim::minutes(10));
  }

  const auto drive_hours = [&](int hours) {
    for (int h = 0; h < hours; ++h) {
      const int hour =
          static_cast<int>(sim::to_seconds(world.loop.now()) / 3600) % 24;
      const double consumer_phase =
          std::sin((hour - 6) / 24.0 * 2 * 3.14159265);  // midday peak
      const double batch_phase =
          std::sin((hour - 18) / 24.0 * 2 * 3.14159265);  // night peak
      for (int i = 0; i < 3; ++i) {
        inject_spread(gateway, services[i]->id,
                      std::max(100.0, (6400.0 - i * 1200.0) *
                                          (1.0 + 0.9 * consumer_phase)),
                      sim::hours(1), 0.05, i == 0 ? 0.8 : 0.2);
      }
      for (int i = 3; i < 5; ++i) {
        inject_spread(gateway, services[i]->id,
                      std::max(100.0, 3000.0 * (1.0 + 0.8 * batch_phase)),
                      sim::hours(1));
      }
      world.loop.run_until(world.loop.now() + sim::hours(1));
    }
  };
  const auto hot_busy_core_seconds = [&] {
    double total = 0;
    for (std::size_t r = 0; r < hot->replica_count(); ++r) {
      total += hot->replica(r)->cpu().total_busy_core_seconds();
    }
    return total;
  };
  const auto peak_hourly_util = [&] {
    const double cores = static_cast<double>(
        hot->replica_count() * gateway.config().replica_cores);
    double peak = 0;
    for (int h = 0; h < 24; ++h) {
      const double before = hot_busy_core_seconds();
      drive_hours(1);
      peak = std::max(peak,
                      (hot_busy_core_seconds() - before) / (3600.0 * cores));
    }
    return peak;
  };

  const double peak_before = peak_hourly_util();  // day 1: in-phase pile-up
  core::TrafficPatternMonitor monitor(world.loop, gateway,
                                      core::PatternMonitorConfig{});
  drive_hours(13);  // to ~hour 37: the peak, with 24 h of history behind it
  monitor.evaluate_now();
  drive_hours(11);  // finish day 2 while the sources drain
  const double peak_after = peak_hourly_util();  // day 3: scattered layout

  runner::RunResult result;
  result.set("peak_before", peak_before);
  result.set("peak_after", peak_after);
  result.set("migrations", static_cast<double>(monitor.migrations().size()));
  for (std::size_t i = 0; i < monitor.migrations().size(); ++i) {
    const core::MigrationPlan& plan = monitor.migrations()[i].plan;
    const std::string prefix = row_prefix("migration", i);
    // Service ids pack (tenant << 32 | index + 1); report the svc-<index>.
    result.set(prefix + "service",
               static_cast<double>((net::id_value(plan.service) &
                                    0xFFFFFFFF) -
                                   1));
    result.set(prefix + "source",
               static_cast<double>(net::id_value(plan.source)));
    result.set(prefix + "target",
               static_cast<double>(net::id_value(plan.target)));
    result.set(prefix + "weighted_rps", plan.weighted_rps);
  }
  return result;
}

// ops_idle_expiry — §6.2's session idle timeout on a sampled gateway: a
// 4-backend gateway with a 30 s idle timeout and 1 s sampling, for 5
// simulated minutes. Pinned flows straddle the timeout. Each service's
// pod sends to the next service on two 20 s flows, which keep one
// connection open and send well within the timeout, and on two 40 s
// flows, which reopen their connection on every send and leave it idle,
// so the sweep expires each of their sessions ~31 s later. Metrics:
// sessions expired, the gateway fastpath hits/misses, live sessions and
// the per-service long-session gauge (sessions older than a minute) at
// the end, request statuses and mean latency.

inline runner::RunResult ops_idle_expiry(const runner::RunSpec& spec) {
  const std::uint64_t seed = 900 + spec.seed;
  core::GatewayConfig config;
  config.session_idle_timeout = sim::seconds(30);
  OpsWorld world(4, 4, seed, seed + 2, seed + 4, config);
  core::MeshGateway& gateway = world.gateway;
  const std::vector<k8s::Service*>& services = world.services;
  for (auto* backend : gateway.all_backends()) {
    backend->start_sampling(sim::seconds(1));
  }

  const sim::TimePoint end = sim::minutes(5);
  std::map<int, std::uint64_t> statuses;
  std::uint64_t requests = 0;
  sim::Duration latency_sum = 0;
  std::uint16_t port = 20'000;
  for (std::size_t i = 0; i < services.size(); ++i) {
    for (const sim::Duration period : {sim::seconds(20), sim::seconds(40)}) {
      for (int flow = 0; flow < 2; ++flow, ++port) {
        mesh::RequestOptions opts;
        opts.client = services[i]->endpoints.front();
        opts.dst_service = services[(i + 1) % services.size()]->id;
        opts.path = "/api/items";
        opts.src_port = port;
        opts.close_after = false;
        const bool reconnect = period > config.session_idle_timeout;
        const sim::TimePoint start =
            sim::milliseconds(250) + (port - 20'000) * sim::milliseconds(1100);
        for (sim::TimePoint at = start; at + sim::seconds(5) < end;
             at += period) {
          opts.new_connection = reconnect || at == start;
          world.loop.post_at(at, [&, opts] {
            world.canal->send_request(opts, [&](mesh::RequestResult r) {
              ++requests;
              ++statuses[r.status];
              latency_sum += r.latency;
            });
          });
        }
      }
    }
  }
  world.loop.run_until(end);

  runner::RunResult result;
  result.set("requests", static_cast<double>(requests));
  for (const auto& [status, count] : statuses) {
    result.set("status_" + std::to_string(status),
               static_cast<double>(count));
  }
  result.set("mean_latency_ms",
             requests == 0 ? 0.0
                           : sim::to_milliseconds(latency_sum) /
                                 static_cast<double>(requests));
  std::uint64_t expired = 0;
  for (auto* backend : gateway.all_backends()) {
    expired += backend->sessions_expired();
  }
  result.set("gw_sessions_expired", static_cast<double>(expired));
  gateway_session_metrics(result, gateway, services);
  return result;
}

// ops_scaling — Fig 17 / Table 4 and Fig 18: precise scaling's two
// strategies. Fig 17 is an ensemble of 30 single-service ramps past the
// alert threshold on a gateway sampled every second: two trials in three
// have cold backends to Reuse, every third has none and provisions New.
// Each decision's alert-to-finish time feeds the Reuse or New CDF
// (`fig17.reuse_p<P>_s` / `fig17.new_p<P>_s`, with event counts); the two
// p50s are Table 4's example timelines. Fig 18 is a month of diurnal load
// on an 8-backend AZ sampled every 30 s, with each of six services' daily
// peak drifting: `fig18.day<N>.reuse` / `.new` count each day's
// decisions, `fig18.reuse_total` / `new_total` the month's, and the
// month's decisions follow as `scale<i>.*`. `events` counts every event
// both worlds run, so a polling timer would show up in the golden.

inline runner::RunResult ops_scaling(const runner::RunSpec& spec) {
  runner::RunResult result;
  std::uint64_t events = 0;

  sim::Histogram reuse_seconds;
  sim::Histogram new_seconds;
  sim::Rng rng(500 + spec.seed);
  for (int trial = 0; trial < 30; ++trial) {
    const bool force_new = trial % 3 == 2;
    const std::uint64_t gateway_seed = rng.next();
    const std::uint64_t cluster_seed = rng.next();
    const std::uint64_t canal_seed = rng.next();
    OpsWorld world(force_new ? 2 : 6, 1, gateway_seed, cluster_seed,
                   canal_seed);
    const net::ServiceId service = world.services.front()->id;
    for (auto* backend : world.gateway.all_backends()) {
      backend->start_sampling(sim::seconds(1));
    }
    core::ScalerConfig scaler_config;
    scaler_config.reuse_delay_mean = sim::seconds(45);
    // No backend is cold enough to Reuse: the New path.
    scaler_config.reuse_max_utilization = force_new ? 0.0 : 0.2;
    core::PreciseScaler scaler(world.loop, world.gateway, scaler_config,
                               sim::Rng(rng.next()));
    scaler.start();
    sim::PeriodicTimer load(world.loop, sim::seconds(1), [&] {
      const double t = sim::to_seconds(world.loop.now());
      inject_spread(world.gateway, service,
                    std::min(52000.0, 4000.0 + 350.0 * t), sim::seconds(1));
    });
    load.start();
    events += world.loop.run_until(sim::minutes(35));
    load.stop();
    scaler.stop();
    for (auto* backend : world.gateway.all_backends()) {
      backend->stop_sampling();
    }
    for (const core::ScalingEvent& event : scaler.events()) {
      (event.kind == core::ScaleKind::kReuse ? reuse_seconds : new_seconds)
          .record(sim::to_seconds(event.finish_time - event.alert_time));
    }
  }
  result.set("fig17.reuse_events", static_cast<double>(reuse_seconds.count()));
  result.set("fig17.new_events", static_cast<double>(new_seconds.count()));
  for (const int p : {10, 25, 50, 75, 90, 99}) {
    const std::string suffix = "_p" + std::to_string(p) + "_s";
    result.set("fig17.reuse" + suffix, reuse_seconds.percentile(p));
    result.set("fig17.new" + suffix, new_seconds.percentile(p));
  }

  const std::uint64_t seed = 600 + spec.seed;
  OpsWorld world(8, 6, seed, seed + 6, seed + 12);
  for (auto* backend : world.gateway.all_backends()) {
    backend->start_sampling(sim::seconds(30));
  }
  core::ScalerConfig scaler_config;
  scaler_config.check_period = sim::seconds(30);
  core::PreciseScaler scaler(world.loop, world.gateway, scaler_config,
                             sim::Rng(seed + 16));
  scaler.start();
  sim::Rng day_rng(seed + 18);
  std::vector<double> day_peaks(world.services.size(), 1.0);
  sim::PeriodicTimer load(world.loop, sim::seconds(30), [&] {
    const double t = sim::to_seconds(world.loop.now());
    const double day_phase =
        std::sin((std::fmod(t, 86400.0) / 86400.0 - 0.25) * 2 * 3.14159265);
    for (std::size_t i = 0; i < world.services.size(); ++i) {
      inject_spread(world.gateway, world.services[i]->id,
                    std::max(200.0, 10000.0 * day_peaks[i] *
                                        (1.0 + 0.9 * day_phase)),
                    sim::seconds(30));
    }
  });
  load.start();
  std::size_t reuse_before = 0;
  std::size_t new_before = 0;
  for (std::size_t day = 1; day <= 30; ++day) {
    // Daily demand drifts per service (weekly growth spurts trigger New).
    for (double& peak : day_peaks) {
      peak *= std::max(0.85, day_rng.normal(1.04, 0.10));
    }
    events += world.loop.run_until(static_cast<sim::Duration>(day) *
                                   sim::hours(24));
    const std::string prefix = row_prefix("fig18.day", day);
    result.set(prefix + "reuse",
               static_cast<double>(scaler.reuse_count() - reuse_before));
    result.set(prefix + "new",
               static_cast<double>(scaler.new_count() - new_before));
    reuse_before = scaler.reuse_count();
    new_before = scaler.new_count();
  }
  load.stop();
  scaler.stop();
  for (auto* backend : world.gateway.all_backends()) backend->stop_sampling();
  result.set("fig18.reuse_total", static_cast<double>(reuse_before));
  result.set("fig18.new_total", static_cast<double>(new_before));
  scaling_event_metrics(result, scaler.events());
  result.set("events", static_cast<double>(events));
  return result;
}

// ops_health_checks — Tables 6/7: health-check probes against app traffic
// at the consolidated gateway before aggregation (up to 515x), and the
// step-by-step reduction through service-, core- and replica-level
// aggregation (>= 99.6%). The five production cases are topologies whose
// unaggregated probe volume matches the paper's "Base" column: few
// services with small app sets, but backends with dozens of replica VMs
// and many cores each. Pure arithmetic over the topology, no RNG: the
// suite runs it once, like region_scale.

inline runner::RunResult ops_health_checks(const runner::RunSpec&) {
  struct Case {
    double app_rps;  ///< user traffic, Table 6's denominator
    std::size_t services;
    std::size_t apps_per_service;
    std::size_t shared_apps;  ///< overlap between consecutive services
    std::size_t replicas;
    std::size_t cores;
  };
  const Case cases[] = {
      {21.0, 3, 7, 2, 32, 16},    {4221.0, 6, 20, 1, 32, 14},
      {385.0, 5, 10, 0, 32, 8},   {496.0, 6, 17, 8, 18, 12},
      {9224.0, 4, 13, 1, 33, 11},
  };
  runner::RunResult result;
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    // One backend hosts every service, so the service-level overlap merge
    // applies; consecutive services share `shared_apps` pods.
    core::HealthCheckTopology topology;
    topology.replicas_per_backend = cases[c].replicas;
    topology.cores_per_replica = cases[c].cores;
    std::uint64_t next_pod = 1;
    std::vector<net::PodId> previous_apps;
    for (std::size_t s = 0; s < cases[c].services; ++s) {
      core::HealthCheckTopology::Placement placement;
      placement.service = static_cast<net::ServiceId>(s + 1);
      placement.backends.push_back(static_cast<net::BackendId>(1));
      if (!previous_apps.empty()) {
        const auto shared =
            static_cast<std::ptrdiff_t>(cases[c].shared_apps);
        placement.apps.assign(previous_apps.end() - shared,
                              previous_apps.end());
      }
      while (placement.apps.size() < cases[c].apps_per_service) {
        placement.apps.push_back(static_cast<net::PodId>(next_pod++));
      }
      previous_apps = placement.apps;
      topology.services.push_back(std::move(placement));
    }
    const core::HealthCheckLoad load =
        core::compute_health_check_load(topology);
    const std::string prefix = row_prefix("case", c + 1);
    result.set(prefix + "app_rps", cases[c].app_rps);
    result.set(prefix + "base", load.base);
    result.set(prefix + "ratio", load.base / cases[c].app_rps);
    result.set(prefix + "service_level", load.service_level);
    result.set(prefix + "core_level", load.core_level);
    result.set(prefix + "replica_level", load.replica_level);
    result.set(prefix + "reduction", load.reduction());
  }
  return result;
}

// ===========================================================================
// Paper-figure families. Each replaces one retired serial binary
// (bench_<family>) and records every number that binary's tables printed,
// at full precision where %.6g keeps the printed digits. Seed 1 keeps the
// binary's RNG seeds; seed s adds `shift` = s - 1 to every one of them.
// Testbeds take `spec.seed` directly, since the binaries used the default
// seed 1. Paper bands the binaries printed next to their tables are
// constants, not results: they live in EXPERIMENTS.md.

// ---------------------------------------------------------------------------
// motivation — §2's population models. Table 1: sidecar CPU and memory per
// production cluster. Table 2: config updates per minute by cluster size
// (mean of 20 clusters). Table 3: L7 adoption by region. Fig 3: one
// customer's sidecar count over 9 quarters.

inline runner::RunResult motivation(const runner::RunSpec& spec) {
  const std::uint64_t shift = spec.seed - 1;
  runner::RunResult result;

  sim::Rng table1_rng(401 + shift);
  const std::pair<std::size_t, std::size_t> clusters[] = {
      {500, 15000}, {200, 8000}, {100, 1000}, {60, 2000}, {60, 400}};
  for (std::size_t c = 0; c < std::size(clusters); ++c) {
    const auto [nodes, pods] = clusters[c];
    const auto footprint = core::sidecar_footprint(nodes, pods, table1_rng);
    const std::string prefix = row_prefix("table1.c", c + 1);
    result.set(prefix + "nodes", static_cast<double>(nodes));
    result.set(prefix + "pods", static_cast<double>(pods));
    result.set(prefix + "cpu_cores", footprint.cpu_cores);
    result.set(prefix + "cpu_share", footprint.cpu_fraction);
    result.set(prefix + "memory_gb", footprint.memory_gb);
    result.set(prefix + "memory_share", footprint.memory_fraction);
  }

  sim::Rng table2_rng(409 + shift);
  for (const std::size_t pods : {300u, 900u, 2250u}) {
    double sum = 0;
    for (int i = 0; i < 20; ++i) {
      sum += core::config_update_frequency_per_min(pods, table2_rng);
    }
    result.set(row_prefix("table2.pods", pods) + "updates_per_min", sum / 20);
  }

  const core::RegionProfile regions[] = {
      {"Region1", 800, 0.95, 0.99, 0.31},
      {"Region2", 700, 0.93, 0.99, 0.35},
      {"Region3", 600, 0.90, 0.95, 0.30},
      {"Region4", 500, 0.80, 0.90, 0.50},
      {"Region5", 400, 0.88, 0.91, 0.60},
  };
  for (std::size_t r = 0; r < std::size(regions); ++r) {
    const auto tenants =
        core::PopulationGenerator(sim::Rng(421 + shift + regions[r].tenants))
            .generate(regions[r]);
    const auto adoption =
        core::PopulationGenerator::summarize(regions[r].name, tenants);
    const std::string prefix = row_prefix("table3.region", r + 1);
    result.set(prefix + "l7", adoption.l7);
    result.set(prefix + "l7_routing", adoption.l7_routing);
    result.set(prefix + "l7_security", adoption.l7_security);
  }

  // Quarterly sidecar counts from 2020 Q1 through 2022 Q1.
  sim::Rng fig3_rng(431 + shift);
  const auto trace = core::sidecar_growth_trace(23000, 9, 1.09, fig3_rng);
  for (std::size_t q = 0; q < trace.size(); ++q) {
    std::string key = "fig3.";
    key += std::to_string(2020 + q / 4);
    key += 'q';
    key += std::to_string(q % 4 + 1);
    result.set(key, trace[q]);
  }
  result.set("fig3.growth", trace.back() / trace.front());
  return result;
}

// ---------------------------------------------------------------------------
// sidecar_util — Fig 2: sidecar CPU utilization vs end-to-end latency.
// Istio with 2-core sidecar pools (4 cores in all) driven at a target
// utilization (~2.9 ms of sidecar CPU per request) for 3 s.

inline runner::RunResult sidecar_util(const runner::RunSpec& spec) {
  runner::RunResult result;
  double idle_latency = 0.0;
  for (const double target_util : {0.1, 0.3, 0.45, 0.6, 0.75, 0.85, 0.95}) {
    Testbed::Options options;
    options.app_service_time = sim::microseconds(100);
    options.node_cores = 64;
    options.seed = spec.seed;
    Testbed bed(options);
    mesh::IstioMesh::Config config;
    config.sidecar_cores_per_node = 2;
    bed.istio = std::make_unique<mesh::IstioMesh>(
        bed.loop, bed.cluster, config, sim::Rng(20 + spec.seed));
    bed.istio->install();

    const double rps = target_util * 4.0 / 2.9e-3;
    const LoadResult load =
        drive_open_loop(bed, *bed.istio, rps, sim::seconds(3), false);
    const double mean_us = load.latency_us.mean();
    if (idle_latency == 0.0) idle_latency = mean_us;
    const std::string prefix = row_prefix(
        "fig2.util", static_cast<std::size_t>(std::lround(target_util * 100)));
    result.set(prefix + "measured_util", load.user_cores() / 4.0);
    // Whole microseconds, as the figure reads them: past 1 s a %.6g golden
    // would drop the last printed digit.
    result.set(prefix + "mean_us", std::round(mean_us));
    result.set(prefix + "p99_us", std::round(load.latency_us.percentile(99)));
    result.set(prefix + "vs_idle", mean_us / idle_latency);
  }
  return result;
}

// ---------------------------------------------------------------------------
// resource — Fig 5/13: mesh CPU cores in the user cluster under growing
// load, Istio vs Ambient vs Canal (plus Canal's cloud-side total), and
// the Istio/Canal and Ambient/Canal ratios with their range.

inline runner::RunResult resource(const runner::RunSpec& spec) {
  Testbed::Options options;
  options.app_service_time = sim::microseconds(100);
  options.node_cores = 64;
  options.seed = spec.seed;
  Testbed bed(options);
  bed.build_all();

  runner::RunResult result;
  double min_istio_ratio = 1e9, max_istio_ratio = 0;
  double min_ambient_ratio = 1e9, max_ambient_ratio = 0;
  for (const double rps : {100.0, 200.0, 300.0, 400.0}) {
    const LoadResult istio =
        drive_open_loop(bed, *bed.istio, rps, sim::seconds(3), false);
    const LoadResult ambient =
        drive_open_loop(bed, *bed.ambient, rps, sim::seconds(3), false);
    const LoadResult canal =
        drive_open_loop(bed, *bed.canal, rps, sim::seconds(3), false);
    const double istio_ratio = istio.user_cores() / canal.user_cores();
    const double ambient_ratio = ambient.user_cores() / canal.user_cores();
    min_istio_ratio = std::min(min_istio_ratio, istio_ratio);
    max_istio_ratio = std::max(max_istio_ratio, istio_ratio);
    min_ambient_ratio = std::min(min_ambient_ratio, ambient_ratio);
    max_ambient_ratio = std::max(max_ambient_ratio, ambient_ratio);
    const std::string prefix =
        row_prefix("fig13.rps", static_cast<std::size_t>(rps));
    result.set(prefix + "istio_cores", istio.user_cores());
    result.set(prefix + "ambient_cores", ambient.user_cores());
    result.set(prefix + "canal_cores", canal.user_cores());
    result.set(prefix + "canal_total_cores", canal.total_cores());
    result.set(prefix + "istio_over_canal", istio_ratio);
    result.set(prefix + "ambient_over_canal", ambient_ratio);
  }
  result.set("fig13.istio_over_canal_min", min_istio_ratio);
  result.set("fig13.istio_over_canal_max", max_istio_ratio);
  result.set("fig13.ambient_over_canal_min", min_ambient_ratio);
  result.set("fig13.ambient_over_canal_max", max_ambient_ratio);
  return result;
}

// ---------------------------------------------------------------------------
// cost — Table 5: deployment cost saved by embedded redirectors (LB
// disaggregation), tunneling (session aggregation) and both, per region.
// Region shapes are estimated from the table's per-region savings: the LB
// fleet share sets the redirector saving, the session-bound VM excess the
// tunneling saving. Pure arithmetic: one run.

inline runner::RunResult cost(const runner::RunSpec&) {
  struct Region {
    double lb_cost;
    double sessions;
    double cpu_vms;
  };
  const Region regions[] = {{47.5, 1.3125e8, 507.5},
                            {45.1, 1.3725e8, 240.0},
                            {32.1, 1.6975e8, 857.5},
                            {36.7, 1.5825e8, 670.0}};
  runner::RunResult result;
  for (std::size_t r = 0; r < std::size(regions); ++r) {
    core::RegionCostProfile profile;
    profile.services = 1000;
    profile.azs = 3;
    profile.lb_vm_monthly_cost = regions[r].lb_cost;
    profile.total_sessions = regions[r].sessions;
    profile.cpu_replica_vms = regions[r].cpu_vms;
    const auto costs = core::compute_region_costs(profile);
    const std::string prefix = row_prefix("table5.region", r + 1);
    result.set(prefix + "redirector", costs.redirector_saving());
    result.set(prefix + "tunneling", costs.tunneling_saving());
    result.set(prefix + "combined", costs.combined_saving());
  }
  return result;
}

namespace detail {

enum class OffloadMode { kNone, kLocalAccel, kRemoteKeyServer };

/// HTTPS short-flow load through one on-node proxy of `cores` with the
/// chosen asymmetric-crypto path, for `seconds` of offered load.
struct CryptoRun {
  double p90_us = 0;
  double proxy_cores = 0;
  std::uint64_t completed = 0;
};

inline CryptoRun run_https_load(OffloadMode mode, double rps, double seconds,
                                std::uint64_t shift, std::size_t cores = 2,
                                double resumption_fraction = 0.0) {
  sim::EventLoop loop;
  sim::CpuSet proxy_cpu(loop, cores);
  crypto::CryptoCostModel model;
  crypto::AsymmetricAccelerator local_soft(loop, proxy_cpu,
                                           crypto::AccelMode::kSoftware,
                                           model);
  crypto::AsymmetricAccelerator local_accel(loop, proxy_cpu,
                                            crypto::AccelMode::kBatched,
                                            model);
  crypto::KeyServer key_server(loop, static_cast<net::AzId>(0), 16,
                               sim::Rng(11 + shift), model);
  key_server.establish_channel("bench");
  key_server.store_private_key("spiffe://t/bench", 0x5EED);
  sim::CpuSet client_fallback(loop, 1);
  crypto::KeyServerClient::Config client_config;
  client_config.requester_id = "bench";
  client_config.model = model;
  crypto::KeyServerClient client(loop, client_fallback, client_config,
                                 sim::Rng(12 + shift));
  client.attach_server(&key_server);

  // Keep the key server's batches warm, as production consolidation does.
  sim::PeriodicTimer background(loop, sim::microseconds(200), [&] {
    key_server.handle_sign("bench", "spiffe://t/bench", "bg", [](auto) {});
  });
  if (mode == OffloadMode::kRemoteKeyServer) background.start();

  CryptoRun result;
  sim::Histogram latency;
  std::uint64_t flow_counter = 0;
  const auto spacing =
      static_cast<sim::Duration>(static_cast<double>(sim::kSecond) / rps);
  const auto count = static_cast<std::uint64_t>(rps * seconds);
  for (std::uint64_t i = 0; i < count; ++i) {
    loop.post_at(static_cast<sim::Duration>(i) * spacing, [&] {
      const sim::TimePoint start = loop.now();
      const bool resumed =
          resumption_fraction > 0.0 &&
          (static_cast<double>(flow_counter++ % 100) <
           resumption_fraction * 100.0);
      // Each HTTPS short flow: one asymmetric handshake + ~1.2ms of TLS
      // session setup, symmetric record crypto, L4 proxying and teardown.
      auto finish = [&, start, deadline = static_cast<sim::TimePoint>(
                                    seconds *
                                    static_cast<double>(sim::kSecond))] {
        proxy_cpu.execute(
            sim::microseconds(1200) + model.symmetric_cost(4096),
            [&, start, deadline] {
              // Only flows completing within the measurement window count
              // toward throughput (goodput under overload).
              if (loop.now() <= deadline) {
                latency.record(sim::to_microseconds(loop.now() - start));
                ++result.completed;
              }
            });
      };
      if (resumed) {
        // TLS session resumption: no asymmetric work at all.
        finish();
        return;
      }
      switch (mode) {
        case OffloadMode::kNone:
          local_soft.submit(finish);
          break;
        case OffloadMode::kLocalAccel:
          local_accel.submit(finish);
          break;
        case OffloadMode::kRemoteKeyServer:
          client.sign("spiffe://t/bench", "hs", [finish](auto) { finish(); });
          break;
      }
    });
  }
  loop.run_until(static_cast<sim::Duration>(seconds * 1.5 *
                                            static_cast<double>(sim::kSecond)));
  background.stop();
  loop.run();
  result.p90_us = latency.percentile(90);
  result.proxy_cores = proxy_cpu.total_busy_core_seconds() / (seconds * 1.5);
  return result;
}

/// Mean completion time (ms) of 400 asymmetric operations at `rps` on an
/// 8-core CPU, by offload mode.
inline double asym_completion_ms(OffloadMode mode, double rps,
                                 std::uint64_t shift) {
  sim::EventLoop loop;
  sim::CpuSet cpu(loop, 8);
  crypto::CryptoCostModel model;
  crypto::AsymmetricAccelerator accel(
      loop, cpu,
      mode == OffloadMode::kNone ? crypto::AccelMode::kSoftware
                                 : crypto::AccelMode::kBatched,
      model);
  crypto::KeyServer ks(loop, static_cast<net::AzId>(0), 16,
                       sim::Rng(13 + shift), model);
  ks.establish_channel("b");
  ks.store_private_key("id", 7);
  sim::CpuSet fallback(loop, 1);
  crypto::KeyServerClient::Config cc;
  cc.requester_id = "b";
  cc.model = model;
  crypto::KeyServerClient client(loop, fallback, cc, sim::Rng(14 + shift));
  client.attach_server(&ks);
  // Key server sees aggregate load from many tenants: keep it warm.
  sim::PeriodicTimer background(loop, sim::microseconds(150), [&] {
    ks.handle_sign("b", "id", "bg", [](auto) {});
  });
  if (mode == OffloadMode::kRemoteKeyServer) background.start();

  sim::Histogram latency;
  const auto spacing =
      static_cast<sim::Duration>(static_cast<double>(sim::kSecond) / rps);
  for (int i = 0; i < 400; ++i) {
    loop.post_at(static_cast<sim::Duration>(i) * spacing, [&] {
      const sim::TimePoint start = loop.now();
      auto record = [&, start] {
        latency.record(sim::to_microseconds(loop.now() - start));
      };
      if (mode == OffloadMode::kRemoteKeyServer) {
        client.sign("id", "t", [record](auto) { record(); });
      } else {
        accel.submit(record);
      }
    });
  }
  loop.run_until(sim::seconds(5));
  background.stop();
  loop.run();
  return latency.mean() / 1000.0;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// crypto — crypto offloading. Fig 12: on-node proxy CPU saved by local
// AVX-512 and by the remote key server. Fig 23: asymmetric-op completion
// time by mode. Fig 25: AVX-512 batch latency vs concurrent new
// connections (stalls below a batch of 8). Fig 27/28: HTTPS short-flow
// goodput and P90 latency with and without offloading, half the flows
// resuming TLS sessions.

inline runner::RunResult crypto(const runner::RunSpec& spec) {
  using detail::OffloadMode;
  const std::uint64_t shift = spec.seed - 1;
  runner::RunResult result;

  for (const double rps : {200.0, 400.0, 600.0}) {
    const auto none = detail::run_https_load(OffloadMode::kNone, rps, 3.0,
                                             shift);
    const auto local = detail::run_https_load(OffloadMode::kLocalAccel, rps,
                                              3.0, shift);
    const auto remote = detail::run_https_load(
        OffloadMode::kRemoteKeyServer, rps, 3.0, shift);
    const std::string prefix =
        row_prefix("fig12.rps", static_cast<std::size_t>(rps));
    result.set(prefix + "none_cores", none.proxy_cores);
    result.set(prefix + "local_cores", local.proxy_cores);
    result.set(prefix + "remote_cores", remote.proxy_cores);
    result.set(prefix + "local_saving",
               1.0 - local.proxy_cores / none.proxy_cores);
    result.set(prefix + "remote_saving",
               1.0 - remote.proxy_cores / none.proxy_cores);
  }

  for (const double rps : {100.0, 500.0, 2000.0}) {
    const std::string prefix =
        row_prefix("fig23.rps", static_cast<std::size_t>(rps));
    result.set(prefix + "software_ms",
               detail::asym_completion_ms(OffloadMode::kNone, rps, shift));
    result.set(prefix + "local_ms", detail::asym_completion_ms(
                                        OffloadMode::kLocalAccel, rps, shift));
    result.set(prefix + "remote_ms",
               detail::asym_completion_ms(OffloadMode::kRemoteKeyServer, rps,
                                          shift));
  }

  for (const std::size_t concurrent : {1u, 2u, 4u, 7u, 8u, 16u, 32u}) {
    sim::EventLoop loop;
    sim::CpuSet cpu(loop, 8);
    crypto::CryptoCostModel model;
    crypto::AsymmetricAccelerator accel(loop, cpu,
                                        crypto::AccelMode::kBatched, model);
    for (std::size_t i = 0; i < concurrent; ++i) accel.submit([] {});
    loop.run();
    result.set(row_prefix("fig25.conns", concurrent) + "handshake_us",
               accel.op_latency_us().mean());
  }

  // Fig 27: offered load sized to the offloaded path's capacity, so the
  // software path saturates. Fig 28: near the software path's saturation,
  // where its queueing delay balloons.
  for (const std::size_t cores : {1u, 2u, 4u}) {
    const double rps = 750.0 * static_cast<double>(cores);
    const auto none = detail::run_https_load(OffloadMode::kNone, rps, 3.0,
                                             shift, cores, 0.5);
    const auto remote = detail::run_https_load(
        OffloadMode::kRemoteKeyServer, rps, 3.0, shift, cores, 0.5);
    const std::string prefix = row_prefix("fig27.cores", cores);
    result.set(prefix + "offered_rps", rps);
    result.set(prefix + "none_done", static_cast<double>(none.completed));
    result.set(prefix + "remote_done", static_cast<double>(remote.completed));
    result.set(prefix + "gain", static_cast<double>(remote.completed) /
                                    static_cast<double>(none.completed));
  }
  for (const std::size_t cores : {1u, 2u, 4u}) {
    const double rps = 330.0 * static_cast<double>(cores);
    const auto none = detail::run_https_load(OffloadMode::kNone, rps, 3.0,
                                             shift, cores, 0.5);
    const auto remote = detail::run_https_load(
        OffloadMode::kRemoteKeyServer, rps, 3.0, shift, cores, 0.5);
    const std::string prefix = row_prefix("fig28.cores", cores);
    result.set(prefix + "offered_rps", rps);
    result.set(prefix + "none_p90_ms", none.p90_us / 1000.0);
    result.set(prefix + "remote_p90_ms", remote.p90_us / 1000.0);
    result.set(prefix + "latency_cut", 1.0 - remote.p90_us / none.p90_us);
  }
  return result;
}

// ---------------------------------------------------------------------------
// special_modes — Appendix B's deployment modes and §6.4. Proxyless vs
// on-node-proxy Canal: mean latency and user CPU per request of 200
// new-connection requests. Keyless mode: new-connection latency when the
// signer is the in-AZ key server or sits in the customer's IDC. Innocence
// probing: success and mean latency per probe destination over the
// full-mesh protocol/AZ matrix, and the infrastructure verdict.

inline runner::RunResult special_modes(const runner::RunSpec& spec) {
  const std::uint64_t shift = spec.seed - 1;
  runner::RunResult result;
  Testbed::Options default_options;
  default_options.seed = spec.seed;

  // 200 new-connection requests 10 ms apart; returns the mean latency and
  // the successful count.
  const auto drive = [](Testbed& bed, mesh::MeshDataplane& mesh) {
    sim::Histogram latency;
    int n = 0;
    for (int i = 0; i < 200; ++i) {
      bed.loop.post_at(i * sim::milliseconds(10), [&] {
        mesh.send_request(bed.request(true), [&](mesh::RequestResult r) {
          if (r.ok()) {
            latency.record(sim::to_microseconds(r.latency));
            ++n;
          }
        });
      });
    }
    bed.loop.run();
    return std::pair<double, int>{latency.mean(), n};
  };
  {
    Testbed bed(default_options);
    bed.build_canal();
    const double cpu_before = bed.canal->user_cpu_core_seconds();
    const auto [mean_us, n] = drive(bed, *bed.canal);
    result.set("proxyless.canal.mean_us", mean_us);
    result.set("proxyless.canal.user_cpu_per_req_us",
               (bed.canal->user_cpu_core_seconds() - cpu_before) / n * 1e6);
  }
  for (const bool user_certs : {true, false}) {
    Testbed bed(default_options);
    bed.gateway = std::make_unique<core::MeshGateway>(
        bed.loop, core::GatewayConfig{}, sim::Rng(51 + shift));
    bed.gateway->add_az(2);
    core::ProxylessMesh::Config config;
    config.user_managed_certs = user_certs;
    config.eni.max_enis_per_node = 64;
    core::ProxylessMesh proxyless(bed.loop, bed.cluster, *bed.gateway, config,
                                  sim::Rng(53 + shift));
    proxyless.install();
    const auto [mean_us, n] = drive(bed, proxyless);
    const std::string prefix =
        user_certs ? "proxyless.user_certs." : "proxyless.gateway_tls.";
    result.set(prefix + "mean_us", mean_us);
    result.set(prefix + "user_cpu_per_req_us",
               proxyless.user_cpu_core_seconds() / n * 1e6);
  }

  struct KeylessMode {
    const char* name;
    sim::Duration one_way;
  };
  const KeylessMode modes[] = {
      {"in_az", sim::microseconds(350)},
      {"idc_same_region", sim::milliseconds(2)},
      {"idc_cross_region", sim::milliseconds(15)},
  };
  for (const KeylessMode& mode : modes) {
    Testbed::Options options = default_options;
    options.app_service_time = sim::microseconds(100);
    Testbed bed(options);
    core::GatewayConfig gateway_config;
    gateway_config.replica_costs.crypto.key_server_one_way = mode.one_way;
    bed.gateway = std::make_unique<core::MeshGateway>(
        bed.loop, gateway_config, sim::Rng(61 + shift));
    bed.gateway->add_az(2);
    bed.key_server = std::make_unique<crypto::KeyServer>(
        bed.loop, static_cast<net::AzId>(0), 8, sim::Rng(63 + shift));
    core::CanalMesh::Config mesh_config;
    mesh_config.onnode.costs.crypto.key_server_one_way = mode.one_way;
    bed.canal = std::make_unique<core::CanalMesh>(
        bed.loop, bed.cluster, *bed.gateway, mesh_config,
        sim::Rng(67 + shift));
    bed.canal->install();
    bed.canal->attach_key_server(static_cast<net::AzId>(0),
                                 bed.key_server.get());
    sim::Histogram latency;
    for (int i = 0; i < 100; ++i) {
      bed.loop.post_at(i * sim::milliseconds(10), [&] {
        bed.canal->send_request(bed.request(true),
                                [&](mesh::RequestResult r) {
          if (r.ok()) latency.record(sim::to_microseconds(r.latency));
        });
      });
    }
    bed.loop.run();
    std::string prefix = "keyless.";
    prefix += mode.name;
    prefix += '.';
    result.set(prefix + "one_way_us", sim::to_microseconds(mode.one_way));
    result.set(prefix + "latency_ms", latency.mean() / 1000.0);
  }

  Testbed::Options options = default_options;
  options.app_service_time = sim::milliseconds(1);
  Testbed bed(options);
  bed.gateway = std::make_unique<core::MeshGateway>(
      bed.loop, core::GatewayConfig{}, sim::Rng(71 + shift));
  bed.gateway->add_az(2);
  bed.gateway->add_az(2);
  bed.canal = std::make_unique<core::CanalMesh>(
      bed.loop, bed.cluster, *bed.gateway, core::CanalMesh::Config{},
      sim::Rng(73 + shift));
  bed.canal->install();
  bed.key_server = std::make_unique<crypto::KeyServer>(
      bed.loop, static_cast<net::AzId>(0), 8, sim::Rng(79 + shift));
  bed.canal->attach_key_server(static_cast<net::AzId>(0),
                               bed.key_server.get());
  bed.canal->attach_key_server(static_cast<net::AzId>(1),
                               bed.key_server.get());
  core::InnocenceProber::Config config;
  config.probe_interval = sim::seconds(5);
  core::InnocenceProber prober(bed.loop, *bed.canal, bed.cluster, config);
  prober.deploy({static_cast<net::AzId>(0), static_cast<net::AzId>(1)});
  prober.start();
  bed.loop.run_until(bed.loop.now() + sim::minutes(2));
  prober.stop();
  bed.loop.run_until(bed.loop.now() + sim::seconds(5));

  const auto& instances = prober.instances();
  for (std::size_t dst = 0; dst < instances.size(); ++dst) {
    std::uint64_t ok = 0, failed = 0;
    double latency_sum = 0;
    std::size_t cells = 0;
    for (std::size_t src = 0; src < instances.size(); ++src) {
      if (src == dst) continue;
      const auto it = prober.matrix().find({src, dst});
      if (it == prober.matrix().end()) continue;
      ok += it->second.ok;
      failed += it->second.failed;
      latency_sum += it->second.latency_us.mean();
      ++cells;
    }
    std::string prefix = "innocence.";
    prefix += core::probe_protocol_name(instances[dst].protocol);
    prefix += row_prefix(".az", net::id_value(instances[dst].az));
    result.set(prefix + "success",
               ok == 0 ? 0.0
                       : static_cast<double>(ok) /
                             static_cast<double>(ok + failed));
    result.set(prefix + "mean_us",
               cells == 0 ? 0.0 : latency_sum / static_cast<double>(cells));
  }
  result.set("innocence.infra_innocent", prober.infra_innocent() ? 1 : 0);
  result.set("innocence.probe_pairs",
             static_cast<double>(prober.matrix().size()));
  return result;
}

// ---------------------------------------------------------------------------
// sharding — Fig 19: the 3-of-12 shuffle-shard backend combination of each
// of 12 top services, whether it is isolated, the largest pairwise
// overlap, and how many other services keep a live backend when every
// backend of service 1 dies.

inline runner::RunResult sharding(const runner::RunSpec& spec) {
  core::ShuffleShardAssigner assigner(3, sim::Rng(700 + spec.seed));
  std::vector<net::BackendId> pool;
  for (std::uint32_t i = 1; i <= 12; ++i) {
    pool.push_back(static_cast<net::BackendId>(i));
  }
  assigner.set_pool(pool);

  runner::RunResult result;
  constexpr std::size_t kTopServices = 12;
  for (std::size_t s = 1; s <= kTopServices; ++s) {
    const auto service = static_cast<net::ServiceId>(s);
    const auto combination = assigner.assign(service);
    const std::string prefix = row_prefix("fig19.service", s);
    for (std::size_t b = 0; b < combination->size(); ++b) {
      result.set(prefix + "backend" + std::to_string(b),
                 static_cast<double>(net::id_value((*combination)[b])));
    }
    result.set(prefix + "isolated", assigner.isolated(service) ? 1 : 0);
  }
  result.set("fig19.max_overlap",
             static_cast<double>(assigner.max_pairwise_overlap()));

  const auto& dead = *assigner.assignment_of(static_cast<net::ServiceId>(1));
  std::size_t survivors = 0;
  for (std::size_t s = 2; s <= kTopServices; ++s) {
    const auto& mine =
        *assigner.assignment_of(static_cast<net::ServiceId>(s));
    const bool alive = std::any_of(mine.begin(), mine.end(), [&](auto b) {
      return std::find(dead.begin(), dead.end(), b) == dead.end();
    });
    if (alive) ++survivors;
  }
  result.set("fig19.survivors", static_cast<double>(survivors));
  result.set("fig19.other_services", static_cast<double>(kTopServices - 1));
  return result;
}

namespace detail {

/// The i-th synthetic client flow towards one VIP (Fig 26 and session
/// aggregation).
inline net::FiveTuple vip_flow(std::uint32_t i) {
  return net::FiveTuple{
      net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                    static_cast<std::uint8_t>(i >> 8),
                    static_cast<std::uint8_t>(i)),
      net::Ipv4Addr(100, 64, 0, 1), static_cast<std::uint16_t>(i * 7 + 1),
      443, net::Protocol::kTcp};
}

}  // namespace detail

// ---------------------------------------------------------------------------
// lb — LB disaggregation mechanics. Fig 26: 20k flows through a 4-replica
// bucket table while replica 2 drains and replica 5 joins — the share of
// established flows that keep their replica, new flows landing on the
// drainer, and chain redirections per packet. Session aggregation: 200k
// inner sessions collapse into 40 NIC tunnel sessions, and the largest
// tunnel's load share. No RNG: one run.

inline runner::RunResult lb(const runner::RunSpec&) {
  using detail::vip_flow;
  runner::RunResult result;
  constexpr std::uint32_t kFlows = 20000;
  lb::BucketTable table(1024, 4);
  std::vector<net::ReplicaId> replicas;
  for (std::uint32_t r = 1; r <= 4; ++r) {
    replicas.push_back(static_cast<net::ReplicaId>(r));
  }
  table.assign_round_robin(replicas);
  const lb::Redirector redirector(table);
  const auto stateless = [](net::ReplicaId, const net::FiveTuple&) {
    return false;
  };

  std::vector<net::ReplicaId> owner(kFlows);
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    owner[i] = redirector.resolve(vip_flow(i), true, stateless)->target;
  }
  // Scale-in: replica 2 prepares to go offline; then scale-out replica 5.
  table.prepare_offline(static_cast<net::ReplicaId>(2),
                        {static_cast<net::ReplicaId>(1),
                         static_cast<net::ReplicaId>(3),
                         static_cast<net::ReplicaId>(4)});
  table.add_replica(static_cast<net::ReplicaId>(5), 256);

  std::uint64_t consistent = 0;
  sim::Histogram redirections;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    const auto decision = redirector.resolve(
        vip_flow(i), false,
        [&](net::ReplicaId replica, const net::FiveTuple& tuple) {
          return owner[i] == replica && vip_flow(i) == tuple;
        });
    if (decision && decision->target == owner[i]) ++consistent;
    if (decision) {
      redirections.record(static_cast<double>(decision->redirections));
    }
  }
  // New flows after the events must avoid the leaving replica.
  std::uint64_t new_on_leaving = 0;
  for (std::uint32_t i = kFlows; i < 2 * kFlows; ++i) {
    if (redirector.resolve(vip_flow(i), true, stateless)->target ==
        static_cast<net::ReplicaId>(2)) {
      ++new_on_leaving;
    }
  }
  result.set("fig26.consistent",
             static_cast<double>(consistent) / static_cast<double>(kFlows));
  result.set("fig26.new_on_draining", static_cast<double>(new_on_leaving));
  result.set("fig26.redirections_mean", redirections.mean());
  result.set("fig26.redirections_p99", redirections.percentile(99));

  lb::SessionAggregator::Config config;
  config.router_ip = net::Ipv4Addr(100, 64, 0, 1);
  config.tunnels_per_replica = 40;  // 10x a 4-core replica
  const lb::SessionAggregator aggregator(config);
  const net::Ipv4Addr replica(172, 16, 0, 1);
  lb::NicSessionCounter counter;
  std::map<std::uint16_t, std::uint64_t> per_tunnel;
  for (std::uint32_t i = 0; i < 200000; ++i) {
    const auto outer = aggregator.outer_tuple(vip_flow(i), replica);
    counter.observe(vip_flow(i), outer);
    ++per_tunnel[outer.src_port];
  }
  double max_share = 0;
  for (const auto& [port, count] : per_tunnel) {
    max_share = std::max(max_share, static_cast<double>(count) / 200000.0);
  }
  result.set("aggregation.inner_sessions",
             static_cast<double>(counter.inner_sessions()));
  result.set("aggregation.tunnel_sessions",
             static_cast<double>(counter.tunnel_sessions()));
  result.set("aggregation.reduction",
             static_cast<double>(counter.inner_sessions()) /
                 static_cast<double>(counter.tunnel_sessions()));
  result.set("aggregation.max_tunnel_share", max_share);
  return result;
}

// ---------------------------------------------------------------------------
// redirection — traffic redirection into the on-node proxy. Fig 21/22:
// 16-byte writes at 4k/s — segments (one context switch each) and
// redirect CPU for iptables (kernel Nagle), raw eBPF, and eBPF with the
// in-proxy Nagle aggregator. Fig 29/30: eBPF vs iptables redirection CPU,
// throughput gain and latency cut by payload size. Cost-model arithmetic
// and a deterministic Nagle buffer: one run.

inline runner::RunResult redirection(const runner::RunSpec&) {
  runner::RunResult result;
  const proxy::ProxyCostModel costs;

  constexpr double kWriteRps = 4000.0;
  constexpr std::uint64_t kWriteBytes = 16;
  const auto count_segments = [&](bool use_nagle) {
    sim::EventLoop loop;
    std::uint64_t segments = 0;
    proxy::NagleBuffer nagle(loop, costs.mss_bytes, sim::milliseconds(1),
                             [&](std::uint64_t, std::uint32_t) {
                               ++segments;
                             });
    const auto writes = static_cast<std::uint64_t>(kWriteRps);  // 1 s
    for (std::uint64_t i = 0; i < writes; ++i) {
      loop.post_at(
          static_cast<sim::Duration>(i) *
              static_cast<sim::Duration>(sim::kSecond / kWriteRps),
          [&] {
            if (use_nagle) {
              nagle.write(kWriteBytes);
            } else {
              ++segments;  // every write is its own segment
            }
          });
    }
    loop.run();
    return segments;
  };
  const std::uint64_t raw_segments = count_segments(false);
  const std::uint64_t nagle_segments = count_segments(true);
  const auto fig22_row = [&](const char* name, proxy::RedirectMode mode,
                             std::uint64_t segments) {
    // One context switch per segment crossing into the proxy.
    std::string prefix = "fig22.";
    prefix += name;
    result.set(prefix + ".segments", static_cast<double>(segments));
    result.set(prefix + ".redirect_cpu_us",
               sim::to_microseconds(costs.redirect_cost(
                   mode, static_cast<std::uint64_t>(kWriteRps * kWriteBytes),
                   segments)));
  };
  fig22_row("iptables", proxy::RedirectMode::kIptables, nagle_segments);
  fig22_row("ebpf_raw", proxy::RedirectMode::kEbpf, raw_segments);
  fig22_row("ebpf_nagle", proxy::RedirectMode::kEbpf, nagle_segments);
  result.set("fig22.raw_over_nagle", static_cast<double>(raw_segments) /
                                         static_cast<double>(nagle_segments));

  for (const std::uint64_t bytes : {64u, 500u, 1500u, 4096u, 16384u}) {
    const std::uint64_t segments = bytes / costs.mss_bytes + 1;
    const double iptables_us = sim::to_microseconds(
        costs.redirect_cost(proxy::RedirectMode::kIptables, bytes, segments));
    double ebpf_us = sim::to_microseconds(
        costs.redirect_cost(proxy::RedirectMode::kEbpf, bytes, segments));
    // Sub-MSS payloads must be aggregated in the proxy before eBPF
    // redirection (§4.1.2); each buffered write costs a small copy. The
    // kernel path gets Nagle for free — this is why the paper's gain is
    // smaller for small packets.
    if (bytes < costs.mss_bytes) {
      const double writes_per_segment =
          static_cast<double>(costs.mss_bytes) / static_cast<double>(bytes);
      ebpf_us += writes_per_segment * 0.5;
    }
    // Work both paths pay regardless of redirection: the app's own kernel
    // egress + the proxy's forward + the copy of each segment.
    const double common_us = sim::to_microseconds(
        static_cast<sim::Duration>(segments) *
            (2 * costs.kernel_pass + costs.l4_forward) +
        costs.memcpy_cost(bytes));
    // Serialized path delay: redirection plus one unavoidable kernel pass.
    const double kernel_us = sim::to_microseconds(
        static_cast<sim::Duration>(segments) * costs.kernel_pass);
    const std::string prefix = row_prefix("fig29.bytes", bytes);
    result.set(prefix + "iptables_cpu_us", iptables_us + common_us);
    result.set(prefix + "ebpf_cpu_us", ebpf_us + common_us);
    result.set(prefix + "throughput_gain",
               (iptables_us + common_us) / (ebpf_us + common_us));
    result.set(prefix + "latency_cut",
               1.0 - (ebpf_us + kernel_us) / (iptables_us + kernel_us));
  }
  return result;
}

// ---------------------------------------------------------------------------
// ablation — Canal's design choices, one at a time (DESIGN.md §6).
// A1: shuffle sharding vs fixed backend groups, services fully lost with
// service 0's backends. A2: bucket chain length vs consecutive drains a
// flow survives. A3: health-check probes as each aggregation level is
// enabled. A4: segments and eBPF redirect CPU saved by Nagle aggregation
// per write size. A5: precise (RCA-sized) vs blind scaling, time until the
// hot backend's water level falls below 50% (-1: never) and scaling
// operations. A6: largest per-core load share of a 4-core replica by
// tunnel count.

inline runner::RunResult ablation(const runner::RunSpec& spec) {
  const std::uint64_t shift = spec.seed - 1;
  runner::RunResult result;

  {
    constexpr std::size_t kServices = 60;
    constexpr std::uint32_t kBackends = 12;
    std::vector<net::BackendId> pool;
    for (std::uint32_t i = 1; i <= kBackends; ++i) {
      pool.push_back(static_cast<net::BackendId>(i));
    }
    core::ShuffleShardAssigner assigner(3, sim::Rng(901 + shift));
    assigner.set_pool(pool);
    std::vector<std::vector<net::BackendId>> shuffled;
    std::vector<std::vector<net::BackendId>> fixed;
    for (std::size_t s = 0; s < kServices; ++s) {
      shuffled.push_back(
          *assigner.assign(static_cast<net::ServiceId>(s + 1)));
      // Naive: services striped onto fixed backend groups.
      const std::size_t g = s % (kBackends / 3);
      fixed.push_back({pool[g * 3], pool[g * 3 + 1], pool[g * 3 + 2]});
    }
    // Kill service 0's backends; count other services with no survivor.
    const auto fully_lost =
        [&](const std::vector<std::vector<net::BackendId>>& assignment) {
          const auto& dead = assignment.front();
          std::size_t lost = 0;
          for (std::size_t s = 1; s < kServices; ++s) {
            const bool survivor = std::any_of(
                assignment[s].begin(), assignment[s].end(), [&](auto b) {
                  return std::find(dead.begin(), dead.end(), b) == dead.end();
                });
            if (!survivor) ++lost;
          }
          return static_cast<double>(lost);
        };
    result.set("a1.fixed_groups_lost", fully_lost(fixed));
    result.set("a1.shuffle_lost", fully_lost(shuffled));
    result.set("a1.other_services", static_cast<double>(kServices - 1));
  }

  for (const std::size_t chain : {2u, 4u, 8u}) {
    lb::BucketTable table(256, chain);
    std::vector<net::ReplicaId> replicas;
    for (std::uint32_t r = 1; r <= 10; ++r) {
      replicas.push_back(static_cast<net::ReplicaId>(r));
    }
    table.assign_round_robin({replicas[0]});
    // A long-lived flow whose state stays on replica 1 while consecutive
    // drain events prepend new heads; count how many events it survives.
    const net::FiveTuple tuple{net::Ipv4Addr(10, 0, 0, 1),
                               net::Ipv4Addr(10, 0, 0, 2), 77, 443,
                               net::Protocol::kTcp};
    const lb::Redirector redirector(table);
    std::size_t survived = 0;
    net::ReplicaId current_head = replicas[0];
    for (std::uint32_t event = 1; event < 9; ++event) {
      table.prepare_offline(current_head, {replicas[event]});
      current_head = replicas[event];
      const auto decision = redirector.resolve(
          tuple, false, [&](net::ReplicaId r, const net::FiveTuple&) {
            return r == replicas[0];
          });
      if (!decision || decision->target != replicas[0]) break;
      ++survived;
    }
    result.set(row_prefix("a2.chain", chain) + "survived",
               static_cast<double>(survived));
  }

  {
    core::HealthCheckTopology topology;
    topology.replicas_per_backend = 32;
    topology.cores_per_replica = 16;
    for (std::uint64_t s = 0; s < 3; ++s) {
      core::HealthCheckTopology::Placement placement;
      placement.service = static_cast<net::ServiceId>(s + 1);
      for (std::uint64_t a = 0; a < 7; ++a) {
        placement.apps.push_back(static_cast<net::PodId>(s * 5 + a + 1));
      }
      placement.backends = {static_cast<net::BackendId>(1)};
      topology.services.push_back(placement);
    }
    const auto load = core::compute_health_check_load(topology);
    result.set("a3.none.probes", load.base);
    result.set("a3.service_merge.probes", load.service_level);
    result.set("a3.service_merge.reduction",
               1 - load.service_level / load.base);
    result.set("a3.core_election.probes", load.core_level);
    result.set("a3.core_election.reduction", 1 - load.core_level / load.base);
    result.set("a3.replica_proxy.probes", load.replica_level);
    result.set("a3.replica_proxy.reduction",
               1 - load.replica_level / load.base);
  }

  const proxy::ProxyCostModel costs;
  for (const std::uint64_t bytes : {16u, 64u, 256u, 1024u}) {
    constexpr std::uint64_t kWrites = 1000;
    sim::EventLoop loop;
    std::uint64_t nagle_segments = 0;
    proxy::NagleBuffer nagle(loop, costs.mss_bytes, sim::milliseconds(1),
                             [&](std::uint64_t, std::uint32_t) {
                               ++nagle_segments;
                             });
    for (std::uint64_t i = 0; i < kWrites; ++i) nagle.write(bytes);
    nagle.flush();
    loop.run();
    const double raw_cost = sim::to_microseconds(costs.redirect_cost(
        proxy::RedirectMode::kEbpf, bytes * kWrites, kWrites));
    const double nagle_cost = sim::to_microseconds(costs.redirect_cost(
        proxy::RedirectMode::kEbpf, bytes * kWrites, nagle_segments));
    const std::string prefix = row_prefix("a4.bytes", bytes);
    result.set(prefix + "raw_segments", static_cast<double>(kWrites));
    result.set(prefix + "nagle_segments", static_cast<double>(nagle_segments));
    result.set(prefix + "cpu_saved", 1.0 - nagle_cost / raw_cost);
  }

  for (const bool precise : {true, false}) {
    sim::EventLoop loop;
    core::MeshGateway gateway(loop, core::GatewayConfig{},
                              sim::Rng(911 + shift));
    gateway.add_az(10);
    k8s::Cluster cluster(loop, static_cast<net::TenantId>(1),
                         sim::Rng(913 + shift));
    cluster.add_node(static_cast<net::AzId>(0), 8);
    k8s::Service& noisy = cluster.add_service("noisy");
    std::vector<k8s::Service*> quiet;
    for (int i = 0; i < 4; ++i) {
      quiet.push_back(&cluster.add_service("quiet-" + std::to_string(i)));
      cluster.add_pod(*quiet.back(), k8s::AppProfile{})
          .set_phase(k8s::PodPhase::kRunning);
    }
    cluster.add_pod(noisy, k8s::AppProfile{})
        .set_phase(k8s::PodPhase::kRunning);
    core::CanalMesh mesh(loop, cluster, gateway, {}, sim::Rng(917 + shift));
    mesh.install();
    core::GatewayBackend* hot = gateway.placement_of(noisy.id).front();
    for (k8s::Service* service : quiet) {
      gateway.extend_service(service->id, *hot);
    }
    for (auto* backend : gateway.all_backends()) {
      backend->start_sampling(sim::seconds(1));
    }
    core::ScalerConfig scaler_config;
    if (!precise) {
      // Blind scaling: no RCA sizing, one backend per alert, and it scales
      // every hosted service instead of the root cause.
      scaler_config.max_scale_out_per_event = 1;
      scaler_config.rca.correlation_threshold = -1.0;  // everything suspect
      scaler_config.rca.min_trend = -1e9;
      scaler_config.rca.top_k = 16;
    }
    core::PreciseScaler scaler(loop, gateway, scaler_config,
                               sim::Rng(919 + shift));
    scaler.start();
    sim::PeriodicTimer load(loop, sim::seconds(1), [&] {
      inject_spread(gateway, noisy.id, 52000.0, sim::seconds(1));
      for (k8s::Service* service : quiet) {
        hot->inject_load(service->id, 300.0, sim::seconds(1));
      }
    });
    load.start();
    sim::TimePoint recovered = -1;
    sim::PeriodicTimer watch(loop, sim::seconds(1), [&] {
      if (recovered < 0 && sim::to_seconds(loop.now()) > 20 &&
          hot->cpu_utilization(sim::seconds(5)) < 0.5) {
        recovered = loop.now();
      }
    });
    watch.start();
    loop.run_until(sim::minutes(10));
    load.stop();
    watch.stop();
    scaler.stop();
    for (auto* backend : gateway.all_backends()) backend->stop_sampling();
    const std::string prefix = precise ? "a5.precise." : "a5.blind.";
    result.set(prefix + "recovered_s",
               recovered < 0 ? -1.0 : sim::to_seconds(recovered));
    result.set(prefix + "operations",
               static_cast<double>(scaler.events().size()));
  }

  for (const std::uint32_t tunnels : {4u, 8u, 40u, 160u}) {
    lb::SessionAggregator::Config config;
    config.router_ip = net::Ipv4Addr(100, 64, 0, 1);
    config.tunnels_per_replica = tunnels;
    const lb::SessionAggregator aggregator(config);
    net::VSwitch vswitch;
    std::map<std::size_t, std::uint64_t> per_core;
    for (std::uint32_t i = 0; i < 100000; ++i) {
      net::Packet packet;
      packet.tuple = net::FiveTuple{
          net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                        static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>(i)),
          net::Ipv4Addr(100, 64, 0, 1), static_cast<std::uint16_t>(i), 443,
          net::Protocol::kTcp};
      aggregator.encapsulate(packet, net::Ipv4Addr(172, 16, 0, 1));
      ++per_core[vswitch.core_for(packet, 4)];
    }
    double max_share = 0;
    for (const auto& [core, count] : per_core) {
      max_share = std::max(max_share, count / 100000.0);
    }
    result.set(row_prefix("a6.tunnels", tunnels) + "max_core_share",
               max_share);
  }
  return result;
}

// ---------------------------------------------------------------------------
// config_push — Ablation A7: full vs incremental configuration push for
// one route change at 100, 400 and 1600 pods. Istio ships the full O(N)
// config to all N sidecars; a delta push sends only the changed service's
// rules. Canal's consolidation shrinks the target count instead: the two
// compose.

inline runner::RunResult config_push(const runner::RunSpec& spec) {
  runner::RunResult result;
  for (const std::size_t pods : {100u, 400u, 1600u}) {
    Testbed::Options options;
    options.nodes = std::max<std::size_t>(2, pods / 15);
    options.services = std::max<std::size_t>(2, pods / 50);
    options.pods_per_service = pods / options.services;
    options.seed = spec.seed;
    Testbed bed(options);
    bed.build_istio();
    bed.build_canal();

    const std::size_t full = mesh::full_config_bytes(bed.cluster);
    const std::size_t delta =
        mesh::service_config_bytes(*bed.cluster.services().front());
    const double istio_full =
        static_cast<double>(full) * static_cast<double>(pods);
    const double istio_incremental =
        static_cast<double>(delta) * static_cast<double>(pods);
    const std::string istio = row_prefix("a7.pods", pods) + "istio.";
    result.set(istio + "targets", static_cast<double>(pods));
    result.set(istio + "full_bytes", istio_full);
    result.set(istio + "incremental_bytes", istio_incremental);
    result.set(istio + "saving", istio_full / istio_incremental);

    const auto canal_targets = bed.canal->routing_update_targets();
    double canal_full = 0;
    for (const auto& target : canal_targets) {
      canal_full += static_cast<double>(target.config_bytes);
    }
    const double canal_incremental =
        static_cast<double>(delta) * static_cast<double>(canal_targets.size());
    const std::string canal = row_prefix("a7.pods", pods) + "canal.";
    result.set(canal + "targets", static_cast<double>(canal_targets.size()));
    result.set(canal + "full_bytes", canal_full);
    result.set(canal + "incremental_bytes", canal_incremental);
    result.set(canal + "saving",
               canal_full / std::max(1.0, canal_incremental));
  }
  return result;
}

// ---------------------------------------------------------------------------
// control_plane — Fig 4: controller build CPU, push time and bytes for a
// full push as the cluster grows (10 Gbps cluster-local southbound).
// Fig 14: P90 config completion time when creating pods, per plane
// (2 s of pod start common to all). Fig 15: southbound bytes and targets
// of one routing-policy update at production shape.

inline runner::RunResult control_plane(const runner::RunSpec& spec) {
  runner::RunResult result;

  k8s::ControlPlaneProfile profile;
  profile.southbound_bandwidth_bps = 10'000'000'000;
  for (const std::size_t pods : {1000u, 2000u, 4000u, 8000u}) {
    // Full per-sidecar config grows with cluster size: O(pods) rules.
    std::vector<k8s::ConfigTarget> targets(
        pods, k8s::ConfigTarget{"sidecar", 200 * pods});
    const k8s::PushReport report =
        k8s::measure_push(profile, std::move(targets)).report;
    const std::string prefix = row_prefix("fig4.pods", pods);
    result.set(prefix + "build_ms", sim::to_milliseconds(report.build_time));
    result.set(prefix + "push_ms", sim::to_milliseconds(report.total_time -
                                                        report.build_time));
    result.set(prefix + "total_ms", sim::to_milliseconds(report.total_time));
    result.set(prefix + "bytes", static_cast<double>(report.bytes_pushed));
  }

  const sim::Duration kPodStart = sim::seconds(2);
  for (const std::size_t new_pods : {50u, 100u, 200u}) {
    // One fresh testbed per plane; each plane configures the same new pods.
    const auto make_bed = [&] {
      Testbed::Options options;
      options.nodes = 20;
      options.services = 10;
      options.pods_per_service = 40;
      options.seed = spec.seed;
      return std::make_unique<Testbed>(options);
    };
    const auto completion = [&](Testbed& bed,
                                const mesh::MeshDataplane& mesh) {
      std::vector<k8s::Pod*> fresh;
      for (std::size_t i = 0; i < new_pods; ++i) {
        fresh.push_back(&bed.cluster.add_pod(
            *bed.services[i % bed.services.size()], k8s::AppProfile{}));
      }
      return kPodStart + k8s::measure_push(k8s::ControlPlaneProfile{},
                                           mesh.pod_create_targets(fresh))
                             .completion;
    };
    const auto istio_bed = make_bed();
    istio_bed->build_istio();
    const sim::Duration istio = completion(*istio_bed, *istio_bed->istio);
    const auto ambient_bed = make_bed();
    ambient_bed->build_ambient();
    const sim::Duration ambient =
        completion(*ambient_bed, *ambient_bed->ambient);
    const auto canal_bed = make_bed();
    canal_bed->build_canal();
    const sim::Duration canal = completion(*canal_bed, *canal_bed->canal);
    const std::string prefix = row_prefix("fig14.new_pods", new_pods);
    result.set(prefix + "istio_s", sim::to_seconds(istio));
    result.set(prefix + "ambient_s", sim::to_seconds(ambient));
    result.set(prefix + "canal_s", sim::to_seconds(canal));
    result.set(prefix + "istio_over_canal",
               sim::to_seconds(istio) / sim::to_seconds(canal));
    result.set(prefix + "ambient_over_canal",
               sim::to_seconds(ambient) / sim::to_seconds(canal));
  }

  // Production shape (§2.2): pods:services ~ 2:1, pods:nodes ~ 15:1; the
  // gateway runs a handful of shared backends.
  Testbed::Options options;
  options.nodes = 4;
  options.services = 30;
  options.pods_per_service = 2;
  options.gateway_backends = 6;
  options.seed = spec.seed;
  Testbed bed(options);
  bed.build_all();
  const auto total_bytes = [](const std::vector<k8s::ConfigTarget>& targets) {
    double total = 0;
    for (const auto& target : targets) {
      total += static_cast<double>(target.config_bytes);
    }
    return total;
  };
  const double istio = total_bytes(bed.istio->routing_update_targets());
  const double ambient = total_bytes(bed.ambient->routing_update_targets());
  const auto canal_targets = bed.canal->routing_update_targets();
  const double canal = total_bytes(canal_targets);
  result.set("fig15.istio.targets",
             static_cast<double>(bed.istio->proxy_count()));
  result.set("fig15.istio.bytes", istio);
  result.set("fig15.istio.vs_canal", istio / canal);
  result.set("fig15.ambient.targets",
             static_cast<double>(bed.ambient->proxy_count()));
  result.set("fig15.ambient.bytes", ambient);
  result.set("fig15.ambient.vs_canal", ambient / canal);
  result.set("fig15.canal.targets", static_cast<double>(canal_targets.size()));
  result.set("fig15.canal.bytes", canal);
  return result;
}

}  // namespace scenarios

/// How a family's runs spread over `--seeds K`.
enum class SeedPolicy {
  kSweep,  ///< one run per seed 1..K
  kOnce,   ///< seed 1 only: no RNG, or one fixed operating point
};

/// One row of a family: its name and the knobs it sets.
struct Variant {
  std::string name;
  std::vector<std::pair<std::string, double>> overrides = {};
};

/// A scenario family. bench_suite derives everything it knows about a
/// family from this record: the scenario it registers, the spec grid, the
/// golden file and section each run feeds, the metric its seed-sweep table
/// summarizes, and its --help line.
struct Family {
  std::string name;
  runner::RunResult (*run)(const runner::RunSpec&);
  std::vector<Variant> variants;
  SeedPolicy seeds;
  std::string golden;
  /// Section within `golden`; a "*" stands for the variant name.
  std::string section;
  std::string headline;
  std::string summary;

  [[nodiscard]] std::string section_for(const std::string& variant) const {
    std::string out = section;
    if (const auto star = out.find('*'); star != std::string::npos) {
      out.replace(star, 1, variant);
    }
    return out;
  }
};

/// Every suite family, in dispatch order: longest runs first, so FIFO
/// dispatch starts the critical path (region, selfperf canal/proxyless,
/// throughput sweeps) before the short tail. Section names keep the
/// retired binaries' golden layout where one existed.
inline std::vector<Family> bench_families() {
  using S = SeedPolicy;
  namespace sc = scenarios;
  const auto each = [](std::initializer_list<const char*> names) {
    std::vector<Variant> variants;
    for (const char* name : names) variants.push_back({name});
    return variants;
  };
  const std::vector<Variant> paper = each({"paper"});
  return {
      // Region runs at seed 1 only: it is the suite's longest run by an
      // order of magnitude, and its determinism story is shards/jobs
      // invariance at one operating point, not a seed sweep.
      {"region_scale", sc::region_scale, each({"canal"}), S::kOnce,
       "BENCH_region.json", "*", "requests",
       "§5 region: 1120 VMs, 1M RPS, Table 3 tenants, sharded"},
      {"selfperf", sc::selfperf,
       each({"canal", "proxyless", "ambient", "istio", "nomesh"}), S::kSweep,
       "BENCH_selfperf.json", "*", "events",
       "simulator wall-clock speed + fastpath hit rates"},
      {"throughput_knee", sc::throughput_knee,
       each({"canal", "ambient", "istio"}), S::kSweep,
       "BENCH_throughput.json", "*", "knee_rps",
       "Fig 11: P99-vs-load sweep and throughput knee"},
      {"noisy_neighbor", sc::noisy_neighbor,
       each({"canal", "ambient", "istio"}), S::kSweep, "BENCH_fairness.json",
       "noisy_neighbor.*", "jain",
       "Fig 16: per-tenant fairness under a one-tenant surge"},
      {"config_churn_storm", sc::config_churn_storm,
       each({"canal", "ambient", "istio"}), S::kSweep,
       "BENCH_controlplane.json", "churn.*", "convergence_ms_max",
       "config epochs under load: convergence, skew, tail"},
      {"cert_rotation_wave", sc::cert_rotation_wave, each({"canal", "istio"}),
       S::kSweep, "BENCH_controlplane.json", "rotation.*", "makespan_ms",
       "batched cert re-sign wave + fresh-cert distribution"},
      {"resilience_retry_storm", sc::resilience_retry_storm,
       {{"breaker-off", {{"breaker", 0}}}, {"breaker-on", {{"breaker", 1}}}},
       S::kSweep, "BENCH_resilience.json", "retry_storm.*",
       "victim_p99_fault_us",
       "dead service's retry storm vs circuit breaker"},
      {"resilience_qod", sc::resilience_qod,
       {{"ejection-off", {{"ejection", 0}}},
        {"ejection-on", {{"ejection", 1}}}},
       S::kSweep, "BENCH_resilience.json", "qod.*", "late_error_rate",
       "query-of-death pod vs outlier ejection"},
      {"resilience_ratelimit", sc::resilience_ratelimit,
       {{"limit-off", {{"limit", 0}}}, {"limit-on", {{"limit", 1}}}},
       S::kSweep, "BENCH_resilience.json", "ratelimit.*", "rate_limited",
       "tenant surge vs per-tenant token buckets"},
      {"faults_podkill", sc::faults_podkill,
       {{"nomesh-retry", {{"retries", 1}}},
        {"istio", {{"retries", 0}}},
        {"istio-retry", {{"retries", 1}}},
        {"ambient", {{"retries", 0}}},
        {"ambient-retry", {{"retries", 1}}},
        {"canal", {{"retries", 0}}},
        {"canal-retry", {{"retries", 1}}}},
       S::kSweep, "BENCH_faults.json", "podkill.*", "ok_fault",
       "stale-endpoint pod crashes, retries on/off"},
      {"faults_gwcrash", sc::faults_gwcrash,
       {{"monitor-off", {{"monitor", 0}, {"retries", 0}}},
        {"monitor-on", {{"monitor", 1}, {"retries", 0}}},
        {"monitor-on-retry", {{"monitor", 1}, {"retries", 1}}}},
       S::kSweep, "BENCH_faults.json", "gwcrash.*", "ok_fault",
       "gateway replica crash, health monitor on/off"},
      {"faults_linkloss", sc::faults_linkloss,
       {{"noretry", {{"retries", 0}}}, {"retry", {{"retries", 1}}}},
       S::kSweep, "BENCH_faults.json", "linkloss.*", "ok_fault",
       "link loss + latency spike, per-try timeouts"},
      {"latency_bimodal", sc::latency_bimodal, each({"canal"}), S::kSweep,
       "BENCH_latency.json", "production", "p50_ms",
       "Fig 24: production-like E2E latency distribution"},
      {"latency_light", sc::latency_light,
       each({"no-mesh", "canal", "ambient", "istio"}), S::kSweep,
       "BENCH_latency.json", "*", "mean_us",
       "Fig 10: light-load latency + span decomposition"},
      {"ops_surge_scaling", sc::ops_surge_scaling, each({"canal"}),
       S::kSweep, "BENCH_ops.json", "surge_scaling", "alert_to_finish_s",
       "Fig 16: noisy-neighbour surge met by precise scaling"},
      {"ops_daily", sc::ops_daily, each({"canal"}), S::kSweep,
       "BENCH_ops.json", "daily", "scaling_events",
       "Fig 20: a day of live operations: RPS + error codes"},
      {"ops_inphase", sc::ops_inphase, each({"canal"}), S::kSweep,
       "BENCH_ops.json", "inphase", "peak_after",
       "§6.3: in-phase services scattered by pattern monitor"},
      {"ops_idle_expiry", sc::ops_idle_expiry, each({"canal"}), S::kSweep,
       "BENCH_ops.json", "idle_expiry", "gw_sessions_expired",
       "§6.2: idle sessions expiring on a sampled gateway"},
      // Seed 1 only, like region_scale: at seed 3 the month's scaler keeps
      // provisioning while its earlier New backends are still booting
      // (1144 decisions against seed 1's 116), and that run alone takes
      // ~35 s.
      {"ops_scaling", sc::ops_scaling, each({"canal"}), S::kOnce,
       "BENCH_ops.json", "scaling", "fig17.reuse_p50_s",
       "Figs 17/18, Table 4: Reuse vs New precise scaling"},
      {"ops_health_checks", sc::ops_health_checks, each({"canal"}), S::kOnce,
       "BENCH_ops.json", "health_checks", "case1.reduction",
       "Tables 6/7: health-check probes and aggregation"},
      {"config_push", sc::config_push, paper, S::kSweep,
       "BENCH_controlplane.json", "config_push", "a7.pods1600.istio.saving",
       "Ablation A7: full vs incremental config push"},
      {"crypto", sc::crypto, paper, S::kSweep, "BENCH_crypto.json", "crypto",
       "fig28.cores2.latency_cut",
       "Figs 12/23/25/27/28: crypto offload"},
      {"control_plane", sc::control_plane, paper, S::kSweep,
       "BENCH_controlplane.json", "control_plane",
       "fig14.new_pods200.istio_over_canal",
       "Figs 4/14/15: config build/push, time, bytes"},
      {"lb", sc::lb, paper, S::kOnce, "BENCH_dataplane.json", "lb",
       "fig26.consistent",
       "Fig 26: session consistency; session aggregation"},
      {"sidecar_util", sc::sidecar_util, paper, S::kSweep,
       "BENCH_motivation.json", "sidecar_util", "fig2.util95.vs_idle",
       "Fig 2: sidecar CPU utilization vs latency"},
      {"ablation", sc::ablation, paper, S::kSweep, "BENCH_dataplane.json",
       "ablation", "a5.precise.recovered_s",
       "Ablations A1-A6: Canal's design choices"},
      {"resource", sc::resource, paper, S::kSweep, "BENCH_motivation.json",
       "resource", "fig13.istio_over_canal_max",
       "Figs 5/13: mesh CPU cores vs workload"},
      {"special_modes", sc::special_modes, paper, S::kSweep,
       "BENCH_crypto.json", "special_modes",
       "keyless.idc_cross_region.latency_ms",
       "Appendix B, §6.4: proxyless, keyless, innocence"},
      {"motivation", sc::motivation, paper, S::kSweep,
       "BENCH_motivation.json", "motivation", "fig3.growth",
       "Tables 1-3, Fig 3: §2 population models"},
      {"redirection", sc::redirection, paper, S::kOnce,
       "BENCH_dataplane.json", "redirection", "fig22.raw_over_nagle",
       "Figs 21/22, 29/30: eBPF vs iptables redirection"},
      {"cost", sc::cost, paper, S::kOnce, "BENCH_motivation.json", "cost",
       "table5.region1.combined",
       "Table 5: cost saved by redirectors and tunneling"},
      {"sharding", sc::sharding, paper, S::kSweep, "BENCH_dataplane.json",
       "sharding", "fig19.survivors",
       "Fig 19: shuffle-shard combinations, blast radius"},
  };
}

/// Registers every family's scenario on `runner`.
inline void register_families(runner::Runner& runner,
                              const std::vector<Family>& families) {
  for (const Family& family : families) {
    runner.register_scenario(family.name, family.run);
  }
}

/// The spec grid for seeds 1..K: one RunSpec per (family, variant, seed),
/// in table order.
inline std::vector<runner::RunSpec> family_specs(
    const std::vector<Family>& families, std::uint64_t seeds) {
  std::vector<runner::RunSpec> specs;
  for (const Family& family : families) {
    const std::uint64_t last = family.seeds == SeedPolicy::kOnce ? 1 : seeds;
    for (const Variant& variant : family.variants) {
      for (std::uint64_t seed = 1; seed <= last; ++seed) {
        specs.push_back(runner::RunSpec{family.name, variant.name, seed,
                                        variant.overrides});
      }
    }
  }
  return specs;
}

}  // namespace canal::bench
