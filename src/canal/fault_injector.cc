#include "canal/fault_injector.h"

namespace canal::core {

void FaultInjector::arm(const sim::FaultPlan& plan) {
  for (const auto& event : plan.pod_events()) {
    if (event.restart) {
      loop_.post_at(event.at, [this, pod = event.pod, &plan] {
        restart_pod(pod, plan);
      });
    } else {
      loop_.post_at(event.at, [this, pod = event.pod] { crash_pod(pod); });
    }
  }
  for (const auto& event : plan.gateway_events()) {
    loop_.post_at(event.at, [this, event] { apply_gateway_event(event); });
  }
}

void FaultInjector::crash_pod(std::uint64_t pod) {
  k8s::Pod* victim = cluster_.find_pod(static_cast<net::PodId>(pod));
  if (victim == nullptr || victim->phase() == k8s::PodPhase::kTerminated) {
    return;
  }
  // The pod dies but stays listed in its service's endpoints: load
  // balancers that cached the endpoint set keep sending requests at it
  // and collect 503s until eviction or retries mask the hole.
  victim->set_phase(k8s::PodPhase::kTerminated);
  ++pods_crashed_;
}

void FaultInjector::restart_pod(std::uint64_t pod,
                                const sim::FaultPlan& plan) {
  k8s::Pod* victim = cluster_.find_pod(static_cast<net::PodId>(pod));
  if (victim == nullptr) return;
  victim->set_phase(k8s::PodPhase::kRunning);
  ++pods_restarted_;
  if (!on_pod_restarted_) return;
  // The control plane learns about the recovery after any stale-config
  // delay active right now.
  const sim::Duration delay = plan.config_delay_at(loop_.now());
  loop_.post(delay, [this, victim] {
    if (on_pod_restarted_) on_pod_restarted_(*victim);
  });
}

void FaultInjector::apply_gateway_event(const sim::GatewayFaultEvent& event) {
  if (gateway_ == nullptr) return;
  GatewayBackend* backend =
      gateway_->find_backend(static_cast<net::BackendId>(event.backend));
  if (backend == nullptr || event.replica_index >= backend->replica_count()) {
    return;
  }
  const net::ReplicaId replica =
      backend->replica(event.replica_index)->id();
  if (event.recover) {
    backend->revive_replica(replica);
  } else {
    backend->crash_replica(replica);
    ++replicas_crashed_;
  }
}

}  // namespace canal::core
