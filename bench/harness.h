// Shared benchmark harness: the small-scale testbed of §5.1 (two worker
// nodes, 15 pods each, 3 services) with all four dataplanes, open-loop
// workload drivers, and table formatting for paper-style output.
//
// Concurrency: a Testbed owns its sim::EventLoop and every object hanging
// off it, and the drivers below write only into result records the caller
// passes in — there are no shared mutable report buffers. One Testbed per
// runner::RunSpec therefore runs safely on any thread; nothing here may
// grow static or cross-testbed mutable state (see DESIGN.md §10).
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "mesh/ambient.h"
#include "mesh/dataplane.h"
#include "mesh/istio.h"
#include "sim/stats.h"
#include "telemetry/registry.h"

namespace canal::bench {

/// Fixed-width table printing that mirrors the paper's tables.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cells) {
    header_ = std::move(cells);
    return *this;
  }
  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i >= widths.size()) widths.resize(i + 1, 0);
        widths[i] = std::max(widths[i], cells[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), cells[i].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string fmt_us(double us) { return fmt("%.0fus", us); }

/// The §5.1 testbed: worker nodes hosting app pods across a few services,
/// with any of the four dataplanes attachable.
struct Testbed {
  struct Options {
    std::size_t nodes = 2;
    std::size_t services = 3;
    std::size_t pods_per_service = 10;  // 2 nodes x 15 pods
    std::size_t node_cores = 8;
    sim::Duration app_service_time = sim::milliseconds(1);
    std::size_t gateway_backends = 2;
    /// The canal gateway's configuration (build_canal). The region-scale
    /// testbeds widen it: they push two orders of magnitude more RPS per
    /// AZ than the §5.1 defaults were sized for.
    core::GatewayConfig gateway;
    std::uint64_t seed = 1;
  };

  /// Present only when the testbed owns its loop (the common case). The
  /// sharded region harness instead hands in a partition loop shared by
  /// every AZ-testbed hosted on that shard, so `loop` is a reference and
  /// declared before the members constructed from it.
  std::unique_ptr<sim::EventLoop> owned_loop_;
  sim::EventLoop& loop;
  k8s::Cluster cluster;
  std::vector<k8s::Service*> services;
  Options options;

  std::unique_ptr<mesh::NoMesh> nomesh;
  std::unique_ptr<mesh::IstioMesh> istio;
  std::unique_ptr<mesh::AmbientMesh> ambient;
  std::unique_ptr<core::MeshGateway> gateway;
  std::unique_ptr<core::CanalMesh> canal;
  std::unique_ptr<crypto::KeyServer> key_server;

  Testbed() : Testbed(Options{}) {}
  explicit Testbed(Options opts)
      : Testbed(std::make_unique<sim::EventLoop>(), nullptr, opts) {}
  /// Builds the testbed on a caller-owned loop (sharded region mode).
  Testbed(sim::EventLoop& external_loop, Options opts)
      : Testbed(nullptr, &external_loop, opts) {}

 private:
  Testbed(std::unique_ptr<sim::EventLoop> owned, sim::EventLoop* external,
          Options opts)
      : owned_loop_(std::move(owned)),
        loop(owned_loop_ ? *owned_loop_ : *external),
        cluster(loop, static_cast<net::TenantId>(1), sim::Rng(opts.seed)),
        options(opts) {
    for (std::size_t i = 0; i < opts.nodes; ++i) {
      cluster.add_node(static_cast<net::AzId>(0), opts.node_cores);
    }
    k8s::AppProfile profile;
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = opts.app_service_time;
    profile.sigma = 0.05;
    for (std::size_t s = 0; s < opts.services; ++s) {
      k8s::Service& service =
          cluster.add_service("service-" + std::to_string(s));
      services.push_back(&service);
      for (std::size_t p = 0; p < opts.pods_per_service; ++p) {
        cluster.add_pod(service, profile)
            .set_phase(k8s::PodPhase::kRunning);
      }
    }
  }

 public:
  void build_nomesh() {
    nomesh = std::make_unique<mesh::NoMesh>(loop, cluster);
  }
  void build_istio() {
    istio = std::make_unique<mesh::IstioMesh>(
        loop, cluster, mesh::IstioMesh::Config{}, sim::Rng(options.seed + 1));
    istio->install();
  }
  void build_ambient() {
    ambient = std::make_unique<mesh::AmbientMesh>(
        loop, cluster, mesh::AmbientMesh::Config{},
        sim::Rng(options.seed + 2));
    ambient->install();
  }
  void build_canal() {
    gateway = std::make_unique<core::MeshGateway>(
        loop, options.gateway, sim::Rng(options.seed + 3));
    gateway->add_az(options.gateway_backends);
    key_server = std::make_unique<crypto::KeyServer>(
        loop, static_cast<net::AzId>(0), 8, sim::Rng(options.seed + 4));
    canal = std::make_unique<core::CanalMesh>(
        loop, cluster, *gateway, core::CanalMesh::Config{},
        sim::Rng(options.seed + 5));
    canal->install();
    canal->attach_key_server(static_cast<net::AzId>(0), key_server.get());
  }
  void build_all() {
    build_nomesh();
    build_istio();
    build_ambient();
    build_canal();
  }

  k8s::Pod* client() { return services.front()->endpoints.front(); }
  net::ServiceId target_service() const { return services.back()->id; }

  mesh::RequestOptions request(bool new_connection = true) {
    mesh::RequestOptions opts;
    opts.client = client();
    opts.dst_service = target_service();
    opts.path = "/api/items";
    opts.new_connection = new_connection;
    return opts;
  }
};

struct LoadResult {
  sim::Histogram latency_us;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  double mesh_user_cpu_core_s = 0.0;
  double mesh_total_cpu_core_s = 0.0;
  double duration_s = 0.0;

  [[nodiscard]] double error_rate() const {
    return sent == 0 ? 0.0
                     : 1.0 - static_cast<double>(ok) /
                                 static_cast<double>(sent);
  }
  /// Mean mesh cores busy inside the user cluster during the run.
  [[nodiscard]] double user_cores() const {
    return duration_s <= 0 ? 0.0 : mesh_user_cpu_core_s / duration_s;
  }
  [[nodiscard]] double total_cores() const {
    return duration_s <= 0 ? 0.0 : mesh_total_cpu_core_s / duration_s;
  }
};

/// Open-loop constant-rate driver: `rps` requests/s for `duration`.
/// When `registry` is non-null, every request is traced and its spans are
/// rolled into the registry under `trace_labels` (per-component latency
/// decomposition); when null, tracing stays off and the hot path is
/// identical to the untraced driver.
inline LoadResult drive_open_loop(
    Testbed& bed, mesh::MeshDataplane& mesh, double rps,
    sim::Duration duration, bool new_connections = false,
    telemetry::MetricsRegistry* registry = nullptr,
    const telemetry::MetricsRegistry::Labels& trace_labels = {}) {
  LoadResult result;
  const double user_cpu_before = mesh.user_cpu_core_seconds();
  const double total_cpu_before = mesh.total_cpu_core_seconds();
  const sim::TimePoint start = bed.loop.now();
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) / rps);
  const auto count = static_cast<std::uint64_t>(
      sim::to_seconds(duration) * rps);
  // Bind metric handles once for the whole run instead of re-interning
  // label strings on every completed request.
  auto recorder = registry != nullptr
                      ? std::make_shared<telemetry::TraceRecorder>(
                            *registry, trace_labels)
                      : nullptr;
  for (std::uint64_t i = 0; i < count; ++i) {
    bed.loop.post_at(
        start + static_cast<sim::Duration>(i) * spacing,
        [&bed, &mesh, &result, new_connections, recorder] {
          mesh::RequestOptions opts = bed.request(new_connections);
          opts.trace = recorder != nullptr;
          mesh.send_request(opts,
                            [&result, recorder](mesh::RequestResult r) {
            ++result.sent;
            if (r.ok()) ++result.ok;
            result.latency_us.record(sim::to_microseconds(r.latency));
            if (recorder != nullptr && r.trace) {
              recorder->record(*r.trace);
            }
          });
        });
  }
  bed.loop.run();
  result.duration_s = sim::to_seconds(bed.loop.now() - start);
  result.mesh_user_cpu_core_s =
      mesh.user_cpu_core_seconds() - user_cpu_before;
  result.mesh_total_cpu_core_s =
      mesh.total_cpu_core_seconds() - total_cpu_before;
  return result;
}

}  // namespace canal::bench
