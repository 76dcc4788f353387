// Hotspot-event throttling (§6.2 Case #3): a social-media platform gets
// hit by a viral event. The influx outruns the customer cluster's
// auto-scaling, requests pile up, and without intervention the cluster
// melts down ("query of death") — and stranded users migrate to a second
// platform, threatening it too. The tenant guard throttles at the mesh
// gateway (early rate limiting at the redirector), keeps the cluster
// below saturation while it scales, then lifts the throttle.
//
// Run: ./build/examples/hotspot_throttling
#include <cmath>
#include <cstdio>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "canal/intervention.h"

using namespace canal;

int main() {
  sim::EventLoop loop;
  core::MeshGateway gateway(loop, core::GatewayConfig{}, sim::Rng(71));
  gateway.add_az(4);

  // The social platform: a small cluster with limited elasticity.
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(5), sim::Rng(73));
  k8s::Node& node = cluster.add_node(static_cast<net::AzId>(0), 4);
  k8s::Service& feed = cluster.add_service("feed");
  k8s::AppProfile app;
  app.fast_fraction = 1.0;
  app.fast_service_mean = sim::milliseconds(2);
  app.cpu_per_request = sim::microseconds(1600);  // feed rendering is heavy
  for (int i = 0; i < 3; ++i) {
    cluster.add_pod(feed, app).set_phase(k8s::PodPhase::kRunning);
  }
  k8s::Service& edge = cluster.add_service("edge");
  k8s::Pod& client = cluster.add_pod(edge, app, &node);
  client.set_phase(k8s::PodPhase::kRunning);

  core::CanalMesh mesh(loop, cluster, gateway, core::CanalMesh::Config{},
                       sim::Rng(79));
  mesh.install();

  core::TenantGuard::Config guard_config;
  guard_config.cluster_alert_utilization = 0.85;
  guard_config.cluster_recovered_utilization = 0.5;
  guard_config.throttle_fraction = 0.4;
  core::TenantGuard guard(loop, gateway, cluster, guard_config);
  guard.start();

  // Inbound demand: baseline 400 rps; the hotspot hits at t=30s with 6x.
  std::uint64_t ok = 0, throttled = 0, failed = 0;
  sim::Rng arrivals(83);
  std::function<void()> schedule_next = [&] {
    const double t = sim::to_seconds(loop.now());
    const double rps = t < 30 ? 400.0 : 2400.0;
    loop.post(static_cast<sim::Duration>(
                  arrivals.exponential(1.0 / rps) *
                  static_cast<double>(sim::kSecond)),
              [&] {
                mesh::RequestOptions request;
                request.client = &client;
                request.dst_service = feed.id;
                request.new_connection = false;
                mesh.send_request(request, [&](mesh::RequestResult r) {
                  if (r.status == 429) ++throttled;
                  else if (r.ok()) ++ok;
                  else ++failed;
                });
                if (sim::to_seconds(loop.now()) < 150) schedule_next();
              });
  };
  schedule_next();

  // The customer's own auto-scaling: adds a node+pod every 30s during the
  // crunch — too slow to absorb the spike alone (the paper: "elasticity is
  // limited by the resource creation and configuration speed").
  sim::PeriodicTimer autoscale(loop, sim::seconds(30), [&] {
    const double t = sim::to_seconds(loop.now());
    if (t > 30 && cluster.nodes().size() < 6) {
      k8s::Node& fresh_node = cluster.add_node(static_cast<net::AzId>(0), 4);
      k8s::Pod& fresh = cluster.add_pod(feed, app, &fresh_node);
      fresh.set_phase(k8s::PodPhase::kRunning);
      mesh.on_pod_created(fresh);
      std::printf(
          "[%6.1fs] customer auto-scaling: +1 node, feed now has %zu pods\n",
          t, feed.endpoints.size());
    }
  });
  autoscale.start();

  std::printf("time    cluster-cpu  throttling  ok/throttled/failed\n");
  bool was_throttling = false;
  for (int t = 10; t <= 150; t += 10) {
    loop.run_until(static_cast<sim::Duration>(t) * sim::kSecond);
    double util = 0;
    for (const auto& n : cluster.nodes()) {
      util += n->cpu().utilization(sim::seconds(5));
    }
    util /= static_cast<double>(cluster.nodes().size());
    if (guard.throttling() != was_throttling) {
      std::printf("[%6.1fs] tenant guard %s gateway throttle\n",
                  static_cast<double>(t),
                  guard.throttling() ? "ENGAGES" : "LIFTS");
      was_throttling = guard.throttling();
    }
    std::printf("%5ds   %5.1f%%       %-9s   %llu/%llu/%llu\n", t,
                util * 100.0, guard.throttling() ? "yes" : "no",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(throttled),
                static_cast<unsigned long long>(failed));
  }
  guard.stop();
  autoscale.stop();
  loop.run_until(loop.now() + sim::seconds(2));

  std::printf(
      "\noutcome: %llu served, %llu throttled at the gateway (protecting "
      "the cluster), %llu failed\n",
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(throttled),
      static_cast<unsigned long long>(failed));
  std::printf(
      "without throttling, request pileup would saturate the cluster and "
      "collapse ALL users' service (the paper's query of death)\n");
  return 0;
}
