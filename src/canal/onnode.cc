#include "canal/onnode.h"

namespace canal::core {

proxy::ProxyCostModel OnNodeProxy::Config::default_costs() {
  proxy::ProxyCostModel costs;
  // Pure L4 with eBPF socket redirection: the cheapest on-node serialized
  // path. Off-path share covers per-pod traffic labeling and L4 telemetry
  // (the extra work §A attributes to per-node vs per-pod observability).
  costs.l4_forward = sim::microseconds(25);
  return costs;
}

OnNodeProxy::OnNodeProxy(sim::EventLoop& loop, const k8s::Node& node,
                         Config config, sim::Rng rng)
    : loop_(loop), node_(node), config_(std::move(config)),
      cpu_(loop, config_.cores, sim::CpuCore::kNoHistory) {
  crypto::KeyServerClient::Config client_config;
  client_config.requester_id =
      "onnode-" + std::to_string(net::id_value(node.id()));
  client_config.model = config_.costs.crypto;
  // Fallback key material for key-server outages (Appendix A): a locally
  // held key enables the software path.
  client_config.local_private_key = rng.next() % (crypto::kFieldPrime - 1);
  key_client_ = std::make_unique<crypto::KeyServerClient>(
      loop, cpu_, std::move(client_config), rng.fork());

  proxy::ProxyEngine::Config engine_config;
  engine_config.name = "onnode-" + std::to_string(net::id_value(node.id()));
  engine_config.l7 = false;
  engine_config.redirect = proxy::RedirectMode::kEbpf;
  engine_config.mtls = config_.mtls;
  engine_config.costs = config_.costs;
  engine_config.off_path_fraction = 0.6;
  auto engine = std::make_unique<proxy::ProxyEngine>(loop, cpu_, engine_config,
                                                     rng.fork());
  engine->set_handshake_executor([this](sim::Callback done) {
    // The engine's continuation waits in a pooled slot: capturing it in the
    // sign callback would outgrow that callback's inline storage.
    sim::Callback* parked = handshakes_.acquire();
    *parked = std::move(done);
    key_client_->sign(config_.identity, "handshake-transcript",
                      [this, parked](std::optional<crypto::Signature>) {
                        sim::Callback resume = std::move(*parked);
                        handshakes_.release(parked);
                        resume();
                      });
  });
  engine_ = std::move(engine);
}

void OnNodeProxy::attach_key_server(crypto::KeyServer* server) {
  key_client_->attach_server(server);
  if (server != nullptr) {
    server->establish_channel("onnode-" +
                              std::to_string(net::id_value(node_.id())));
    if (!config_.identity.empty()) {
      // The tenant enrolls its key with the multi-tenant key server; the
      // keyless mode (Appendix B) simply skips this step.
      if (!server->has_key(config_.identity)) {
        server->store_private_key(config_.identity, 0x5EED);
      }
    }
  }
}

void OnNodeProxy::record_pod_traffic(net::PodId pod, std::uint64_t bytes) {
  pod_bytes_[pod] += bytes;
  total_bytes_ += bytes;
}

std::uint64_t OnNodeProxy::pod_traffic(net::PodId pod) const {
  const auto it = pod_bytes_.find(pod);
  return it == pod_bytes_.end() ? 0 : it->second;
}

}  // namespace canal::core
