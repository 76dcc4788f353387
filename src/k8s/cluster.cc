#include "k8s/cluster.h"

#include <algorithm>

namespace canal::k8s {

Cluster::Cluster(sim::EventLoop& loop, net::TenantId tenant, sim::Rng rng)
    : loop_(loop), tenant_(tenant), rng_(rng) {}

Node& Cluster::add_node(net::AzId az, std::size_t cores) {
  // Node IPs: 10.<tenant>.0.x  (overlapping across tenants by design —
  // multi-tenant differentiation must come from VNI/service-ID, not IPs).
  const auto tenant_octet =
      static_cast<std::uint8_t>(net::id_value(tenant_) & 0xFF);
  const net::Ipv4Addr ip(10, tenant_octet, 0,
                         static_cast<std::uint8_t>(next_node_ & 0xFF));
  nodes_.push_back(std::make_unique<Node>(
      loop_, static_cast<net::NodeId>(next_node_++), az, cores, ip));
  return *nodes_.back();
}

Service& Cluster::add_service(std::string name, bool wants_l7) {
  auto service = std::make_unique<Service>();
  // Globally unique service ID: tenant in the high bits.
  service->id = static_cast<net::ServiceId>(
      (std::uint64_t{net::id_value(tenant_)} << 32) | next_service_++);
  service->tenant = tenant_;
  service->name = std::move(name);
  service->wants_l7 = wants_l7;
  services_.push_back(std::move(service));
  return *services_.back();
}

Pod& Cluster::add_pod(Service& service, AppProfile profile, Node* placement) {
  Node* node = placement;
  if (node == nullptr && !nodes_.empty()) {
    // Fewest-pods-first placement, ties to the earliest node. Live pods are
    // counted in one pass: node ids run from 1 and nodes are never erased,
    // so nodes_[id - 1] is the node (a pod placed explicitly on another
    // cluster's node fails the identity check and is not counted).
    std::vector<std::size_t> counts(nodes_.size(), 0);
    for (const auto& p : pods_) {
      const std::size_t index = net::id_value(p->node().id()) - 1;
      if (index < nodes_.size() && nodes_[index].get() == &p->node() &&
          p->phase() != PodPhase::kTerminated) {
        ++counts[index];
      }
    }
    node = nodes_[static_cast<std::size_t>(
                      std::min_element(counts.begin(), counts.end()) -
                      counts.begin())]
               .get();
  }
  const auto tenant_octet =
      static_cast<std::uint8_t>(net::id_value(tenant_) & 0xFF);
  const net::Ipv4Addr ip(10, tenant_octet,
                         static_cast<std::uint8_t>((next_ip_suffix_ >> 8) + 1),
                         static_cast<std::uint8_t>(next_ip_suffix_ & 0xFF));
  ++next_ip_suffix_;
  pods_.push_back(std::make_unique<Pod>(
      loop_, static_cast<net::PodId>(next_pod_++), service.id, tenant_, *node,
      ip, profile, rng_.fork()));
  Pod& pod = *pods_.back();
  service.endpoints.push_back(&pod);
  return pod;
}

void Cluster::remove_pod(net::PodId id) {
  Pod* pod = find_pod(id);
  if (pod == nullptr) return;
  pod->set_phase(PodPhase::kTerminated);
  for (auto& service : services_) {
    auto& eps = service->endpoints;
    eps.erase(std::remove(eps.begin(), eps.end(), pod), eps.end());
  }
}

Pod* Cluster::find_pod(net::PodId id) {
  // Pod ids run from 1 and pods are never erased (terminated pods stay).
  const std::uint64_t index = net::id_value(id) - 1;
  return index < pods_.size() ? pods_[index].get() : nullptr;
}

Service* Cluster::find_service(net::ServiceId id) {
  // add_service numbers services from 1 in the low 32 bits and never
  // removes one, so the low bits index services_; the full compare rejects
  // another tenant's id.
  const std::uint64_t index = (net::id_value(id) & 0xFFFF'FFFFu) - 1;
  if (index >= services_.size()) return nullptr;
  Service* service = services_[index].get();
  return service->id == id ? service : nullptr;
}

Service* Cluster::find_service(const std::string& name) {
  for (auto& s : services_) {
    if (s->name == name) return s.get();
  }
  return nullptr;
}

std::size_t Cluster::running_pods() const {
  std::size_t n = 0;
  for (const auto& p : pods_) {
    if (p->ready()) ++n;
  }
  return n;
}

std::vector<Pod*> Cluster::pods_on(const Node& node) {
  std::vector<Pod*> out;
  for (auto& p : pods_) {
    if (&p->node() == &node && p->phase() != PodPhase::kTerminated) {
      out.push_back(p.get());
    }
  }
  return out;
}

}  // namespace canal::k8s
