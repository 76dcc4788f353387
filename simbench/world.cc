#include "world.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

namespace simbench {

std::string_view plane_name(Plane plane) {
  switch (plane) {
    case Plane::kNoMesh: return "nomesh";
    case Plane::kIstio: return "istio";
    case Plane::kAmbient: return "ambient";
    case Plane::kCanal: return "canal";
    case Plane::kProxyless: return "proxyless";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// World

World::World(const WorldOptions& options)
    : World(std::make_unique<sim::EventLoop>(), nullptr, options) {}

World::World(sim::EventLoop& external_loop, const WorldOptions& options)
    : World(nullptr, &external_loop, options) {}

World::World(std::unique_ptr<sim::EventLoop> owned, sim::EventLoop* external,
             const WorldOptions& options)
    : owned_loop_(std::move(owned)),
      loop_(owned_loop_ ? *owned_loop_ : *external),
      options_(options),
      cluster_(loop_, static_cast<net::TenantId>(1), sim::Rng(options.seed)) {
  for (std::size_t i = 0; i < options.nodes; ++i) {
    cluster_.add_node(static_cast<net::AzId>(0), options.node_cores);
  }
  k8s::AppProfile profile;
  profile.fast_fraction = 1.0;
  profile.fast_service_mean = options.app_service_time;
  profile.sigma = 0.05;
  for (std::size_t s = 0; s < options.services; ++s) {
    k8s::Service& service =
        cluster_.add_service("service-" + std::to_string(s));
    services_.push_back(&service);
    for (std::size_t p = 0; p < options.pods_per_service; ++p) {
      cluster_.add_pod(service, profile).set_phase(k8s::PodPhase::kRunning);
    }
  }
}

core::GatewayConfig World::gateway_config() const {
  core::GatewayConfig config;
  if (options_.gateway_replicas_per_backend > 0) {
    config.replicas_per_backend = options_.gateway_replicas_per_backend;
  }
  if (options_.gateway_replica_cores > 0) {
    config.replica_cores = options_.gateway_replica_cores;
  }
  if (options_.gateway_backends_per_service > 0) {
    config.backends_per_service_local = options_.gateway_backends_per_service;
  }
  return config;
}

// Per-plane RNG streams use the seed offsets the rest of the repository
// uses (+1 istio, +2 ambient, +3 gateway, +4 key server, +5 canal).
void World::build(Plane plane) {
  const std::uint64_t seed = options_.seed;
  switch (plane) {
    case Plane::kNoMesh:
      if (!nomesh_) nomesh_ = std::make_unique<mesh::NoMesh>(loop_, cluster_);
      return;
    case Plane::kIstio:
      if (!istio_) {
        istio_ = std::make_unique<mesh::IstioMesh>(
            loop_, cluster_, mesh::IstioMesh::Config{}, sim::Rng(seed + 1));
        istio_->install();
      }
      return;
    case Plane::kAmbient:
      if (!ambient_) {
        ambient_ = std::make_unique<mesh::AmbientMesh>(
            loop_, cluster_, mesh::AmbientMesh::Config{}, sim::Rng(seed + 2));
        ambient_->install();
      }
      return;
    case Plane::kCanal:
      if (!canal_) {
        gateway_ = std::make_unique<core::MeshGateway>(loop_, gateway_config(),
                                                       sim::Rng(seed + 3));
        gateway_->add_az(options_.gateway_backends);
        key_server_ = std::make_unique<crypto::KeyServer>(
            loop_, static_cast<net::AzId>(0), 8, sim::Rng(seed + 4));
        canal_ = std::make_unique<core::CanalMesh>(
            loop_, cluster_, *gateway_, core::CanalMesh::Config{},
            sim::Rng(seed + 5));
        canal_->install();
        canal_->attach_key_server(static_cast<net::AzId>(0),
                                  key_server_.get());
      }
      return;
    case Plane::kProxyless:
      if (!proxyless_) {
        proxyless_gateway_ = std::make_unique<core::MeshGateway>(
            loop_, gateway_config(), sim::Rng(seed + 3));
        proxyless_gateway_->add_az(options_.gateway_backends);
        // Room for an ENI per pod: with the default per-node limit some
        // pods cannot authenticate and every request they send fails.
        core::ProxylessMesh::Config config;
        config.eni.max_enis_per_node =
            options_.services * options_.pods_per_service;
        proxyless_ = std::make_unique<core::ProxylessMesh>(
            loop_, cluster_, *proxyless_gateway_, config, sim::Rng(seed + 5));
        proxyless_->install();
      }
      return;
  }
}

mesh::MeshDataplane& World::plane(Plane plane) {
  mesh::MeshDataplane* found = nullptr;
  switch (plane) {
    case Plane::kNoMesh: found = nomesh_.get(); break;
    case Plane::kIstio: found = istio_.get(); break;
    case Plane::kAmbient: found = ambient_.get(); break;
    case Plane::kCanal: found = canal_.get(); break;
    case Plane::kProxyless: found = proxyless_.get(); break;
  }
  if (found == nullptr) {
    throw std::logic_error("simbench: plane " +
                           std::string(plane_name(plane)) + " not built");
  }
  return *found;
}

std::vector<core::GatewayBackend*> World::backends() {
  std::vector<core::GatewayBackend*> out;
  for (core::MeshGateway* gw : {gateway_.get(), proxyless_gateway_.get()}) {
    if (gw == nullptr) continue;
    for (core::GatewayBackend* backend : gw->all_backends()) {
      out.push_back(backend);
    }
  }
  return out;
}

std::vector<proxy::ProxyEngine*> World::engines() {
  std::vector<proxy::ProxyEngine*> out;
  std::set<proxy::ProxyEngine*> seen;
  const auto add = [&](proxy::ProxyEngine* engine) {
    if (engine != nullptr && seen.insert(engine).second) out.push_back(engine);
  };
  if (istio_) {
    for (const auto& pod : cluster_.pods()) add(istio_->sidecar_engine(pod->id()));
  }
  if (ambient_) {
    for (const auto& node : cluster_.nodes()) {
      add(ambient_->ztunnel_engine(*node));
    }
    for (const auto& service : cluster_.services()) {
      add(ambient_->waypoint_engine(service->id));
    }
  }
  if (canal_) {
    for (const auto& node : cluster_.nodes()) {
      if (core::OnNodeProxy* onnode = canal_->proxy_for(*node)) {
        add(&onnode->engine());
      }
    }
  }
  for (core::GatewayBackend* backend : backends()) {
    for (std::size_t r = 0; r < backend->replica_count(); ++r) {
      add(&backend->replica(r)->engine());
    }
  }
  return out;
}

std::vector<sim::CpuSet*> World::cpu_sets() {
  std::vector<sim::CpuSet*> out;
  std::set<sim::CpuSet*> seen;
  const auto add = [&](sim::CpuSet* cpu) {
    if (seen.insert(cpu).second) out.push_back(cpu);
  };
  for (const auto& node : cluster_.nodes()) add(&node->cpu());
  for (proxy::ProxyEngine* engine : engines()) add(&engine->cpu());
  if (key_server_) add(&key_server_->cpu());
  return out;
}

// ---------------------------------------------------------------------------
// Ledger

std::uint32_t Ledger::issue() {
  completions_.push_back(0);
  ++issued_;
  return static_cast<std::uint32_t>(completions_.size() - 1);
}

void Ledger::complete(std::uint32_t id, bool ok, sim::Duration latency) {
  ++completed_;
  if (ok) ++ok_;
  const double us = sim::to_microseconds(latency);
  latency_us_.record(us);
  if (samples_us_.size() < kSamples) samples_us_.push_back(us);
  if (id < completions_.size() && completions_[id] < 255) ++completions_[id];
}

std::uint64_t Ledger::violations() const {
  std::uint64_t bad = merged_violations_;
  for (const std::uint8_t n : completions_) bad += n == 1 ? 0 : 1;
  return bad;
}

void Ledger::merge(const Ledger& other) {
  issued_ += other.issued_;
  completed_ += other.completed_;
  ok_ += other.ok_;
  merged_violations_ += other.violations();
  latency_us_.merge(other.latency_us_);
}

// ---------------------------------------------------------------------------
// Flows

namespace {

constexpr std::uint32_t kRequestBytes = 256;
constexpr std::uint32_t kResponseBytes = 1024;

mesh::RequestOptions request_options(const Flow& flow, k8s::Pod* client,
                                     bool first) {
  mesh::RequestOptions opts;
  opts.client = client;
  opts.dst_service = flow.dst_service;
  opts.tenant = flow.tenant;
  opts.path = "/api/items";
  opts.request_bytes = kRequestBytes;
  opts.src_port = flow.src_port;
  // A pinned flow handshakes only on first use; a churn flow every time.
  opts.new_connection = flow.src_port == 0 || first;
  opts.close_after = flow.src_port == 0;
  return opts;
}

void fire(Flow& flow) {
  const bool first = flow.issued == 0;
  const std::uint32_t id = flow.ledger->issue();
  if (flow.forward == nullptr) {
    Ledger* ledger = flow.ledger;
    flow.mesh->send_request(request_options(flow, flow.client, first),
                            [ledger, id](mesh::RequestResult r) {
                              ledger->complete(id, r.ok(), r.latency);
                            });
  } else {
    const sim::TimePoint sent_at = flow.loop->now();
    flow.forward->deliver(kRequestBytes, [&flow, id, sent_at, first] {
      flow.remote_mesh->send_request(
          request_options(flow, flow.ingress, first),
          [&flow, id, sent_at](mesh::RequestResult r) {
            const bool ok = r.ok();
            flow.reverse->deliver(kResponseBytes, [&flow, id, sent_at, ok] {
              flow.ledger->complete(id, ok, flow.loop->now() - sent_at);
            });
          });
    });
  }
  ++flow.issued;
  if (flow.issued < flow.count) {
    flow.loop->post_at(
        flow.start + static_cast<sim::Duration>(flow.issued) * flow.spacing,
        [&flow] { fire(flow); });
  }
}

}  // namespace

void start_flow(Flow& flow) {
  if (flow.count == 0) return;
  flow.loop->post_at(flow.start, [&flow] { fire(flow); });
}

// ---------------------------------------------------------------------------
// Digest

std::uint64_t Digest::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  mix(sent);
  mix(ok);
  mix(bits(p50_us));
  mix(bits(p99_us));
  mix(fastpath_hits);
  mix(fastpath_misses);
  mix(events);
  return h;
}

std::string Digest::str() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "sent=%" PRIu64 " ok=%" PRIu64
                " p50_us=%.3f p99_us=%.3f fastpath_hits=%" PRIu64
                " fastpath_misses=%" PRIu64 " events=%" PRIu64
                " digest=%016" PRIx64,
                sent, ok, p50_us, p99_us, fastpath_hits, fastpath_misses,
                events, hash());
  return buf;
}

// ---------------------------------------------------------------------------
// Layer counts

void LayerCounts::add(const LayerCounts& o) {
  proxy_fastpath_hits += o.proxy_fastpath_hits;
  proxy_fastpath_misses += o.proxy_fastpath_misses;
  proxy_handshakes += o.proxy_handshakes;
  proxy_sessions_live += o.proxy_sessions_live;
  gw_fastpath_hits += o.gw_fastpath_hits;
  gw_fastpath_misses += o.gw_fastpath_misses;
  gw_session_occupancy_sum += o.gw_session_occupancy_sum;
  gw_backends += o.gw_backends;
  keyserver_served += o.keyserver_served;
  keyserver_rejected += o.keyserver_rejected;
  remote_signs += o.remote_signs;
  fallback_signs += o.fallback_signs;
  accel_batches += o.accel_batches;
  cpu_jobs += o.cpu_jobs;
}

LayerCounts count_layers(World& world) {
  LayerCounts c;
  for (proxy::ProxyEngine* engine : world.engines()) {
    c.proxy_fastpath_hits += engine->fastpath_hits();
    c.proxy_fastpath_misses += engine->fastpath_misses();
    c.proxy_handshakes += engine->handshakes();
    c.proxy_sessions_live += engine->sessions().size();
  }
  for (core::GatewayBackend* backend : world.backends()) {
    c.gw_fastpath_hits += backend->fastpath_hits();
    c.gw_fastpath_misses += backend->fastpath_misses();
    c.gw_session_occupancy_sum += backend->session_occupancy();
    ++c.gw_backends;
  }
  if (crypto::KeyServer* ks = world.key_server()) {
    c.keyserver_served = ks->requests_served();
    c.keyserver_rejected = ks->requests_rejected();
    c.accel_batches = ks->accelerator().batches_flushed();
  }
  if (core::CanalMesh* canal = world.canal()) {
    for (const auto& node : world.cluster().nodes()) {
      if (core::OnNodeProxy* onnode = canal->proxy_for(*node)) {
        c.remote_signs += onnode->key_client().remote_signs();
        c.fallback_signs += onnode->key_client().fallback_signs();
      }
    }
  }
  for (sim::CpuSet* cpu : world.cpu_sets()) {
    for (std::size_t i = 0; i < cpu->size(); ++i) c.cpu_jobs += cpu->core(i).jobs();
  }
  return c;
}

}  // namespace simbench
