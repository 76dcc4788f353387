#include "canal/intervention.h"

#include <algorithm>

namespace canal::core {

void MigrationController::migrate_lossy(net::ServiceId service,
                                        net::AzId az) {
  MigrationRecord record;
  record.kind = MigrationKind::kLossy;
  record.service = service;
  record.started = loop_.now();

  // Reset all sessions of the service, then rebuild in the sandbox.
  for (GatewayBackend* backend : gateway_.placement_view(service)) {
    record.sessions_reset += backend->reset_service_sessions(service);
  }
  gateway_.move_to_sandbox(service, az);
  // Config push to the sandbox completes within seconds.
  const std::size_t index = records_.size();
  records_.push_back(record);
  loop_.post(sim::seconds(2), [this, index] {
    records_[index].completed = loop_.now();
  });
}

void MigrationController::migrate_lossless(net::ServiceId service,
                                           net::AzId az) {
  MigrationRecord record;
  record.kind = MigrationKind::kLossless;
  record.service = service;
  record.started = loop_.now();

  std::vector<net::BackendId> old_backends;
  for (GatewayBackend* backend : gateway_.placement_view(service)) {
    old_backends.push_back(backend->id());
  }
  // New sessions route to the sandbox from now on; existing flows keep
  // their state on the old backends until they age out.
  gateway_.move_to_sandbox(service, az);
  const std::size_t index = records_.size();
  records_.push_back(record);
  poll_drain(index, std::move(old_backends));
}

void MigrationController::poll_drain(std::size_t record_index,
                                     std::vector<net::BackendId> old_backends) {
  std::size_t remaining = 0;
  for (const auto backend_id : old_backends) {
    GatewayBackend* backend = gateway_.find_backend(backend_id);
    if (backend != nullptr) {
      remaining += backend->sessions_for(records_[record_index].service);
    }
  }
  if (remaining == 0) {
    records_[record_index].completed = loop_.now();
    return;
  }
  loop_.post(sim::seconds(30),
             [this, record_index, old_backends = std::move(old_backends)]() mutable {
               poll_drain(record_index, std::move(old_backends));
             });
}

std::size_t MigrationController::in_progress() const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [](const auto& r) { return !r.completed.has_value(); }));
}

AnomalyResponder::AnomalyResponder(sim::EventLoop& loop, MeshGateway& gateway,
                                   PreciseScaler& scaler,
                                   MigrationController& migrations,
                                   ResponderConfig config)
    : loop_(loop),
      gateway_(gateway),
      scaler_(scaler),
      migrations_(migrations),
      config_(config) {}

AnomalyResponder::~AnomalyResponder() = default;

void AnomalyResponder::start() {
  timer_ = std::make_unique<sim::PeriodicTimer>(loop_, config_.check_period,
                                                [this] { sweep(); });
  timer_->start(config_.check_period);
}

void AnomalyResponder::stop() {
  if (timer_) timer_->stop();
}

net::ServiceId AnomalyResponder::dominant_new_session_service(
    GatewayBackend& backend) const {
  net::ServiceId best{};
  double best_rate = -1.0;
  for (const auto& [service, stats] : backend.service_stats()) {
    const double rate = stats->new_session_rate(loop_.now());
    if (rate > best_rate) {
      best_rate = rate;
      best = service;
    }
  }
  return best;
}

void AnomalyResponder::sweep() {
  for (GatewayBackend* backend : gateway_.all_backends()) {
    if (backend->is_sandbox() || !backend->alive()) continue;
    auto snap = backend->snapshot(config_.snapshot_window);
    auto& baseline = baselines_[backend->id()];
    const bool over_cpu =
        snap.cpu_utilization >= config_.alert_threshold;
    const bool over_sessions =
        snap.session_occupancy >= config_.thresholds.session_occupancy_alarm;
    if (over_cpu || over_sessions) {
      const auto kind =
          telemetry::classify_backend_anomaly(baseline, snap,
                                              config_.thresholds);
      respond(*backend, kind, snap);
    } else {
      // Quiet period: refresh the baseline the classifier diffs against.
      baseline = snap;
    }
  }
}

void AnomalyResponder::respond(GatewayBackend& backend,
                               telemetry::AnomalyKind kind,
                               const telemetry::BackendSnapshot& snap) {
  InterventionEvent event;
  event.anomaly = kind;
  event.backend = backend.id();
  event.time = loop_.now();

  switch (kind) {
    case telemetry::AnomalyKind::kNormalGrowth:
      event.action = "precise-scaling";
      scaler_.check_now();
      break;
    case telemetry::AnomalyKind::kSessionFlood: {
      const net::ServiceId service = dominant_new_session_service(backend);
      event.service = service;
      event.action = "lossy-migration";
      migrations_.migrate_lossy(service, backend.az());
      break;
    }
    case telemetry::AnomalyKind::kExpensiveQuery: {
      const auto top = snap.top_services(1);
      if (!top.empty()) {
        event.service = top.front().first;
        event.action = "lossless-migration";
        migrations_.migrate_lossless(top.front().first, backend.az());
      }
      break;
    }
    case telemetry::AnomalyKind::kUndetermined:
      event.action = "flag-operator";
      break;
  }
  events_.push_back(std::move(event));
}

TenantGuard::TenantGuard(sim::EventLoop& loop, MeshGateway& gateway,
                         k8s::Cluster& cluster, Config config)
    : loop_(loop), gateway_(gateway), cluster_(cluster), config_(config) {}

TenantGuard::~TenantGuard() = default;

void TenantGuard::start() {
  timer_ = std::make_unique<sim::PeriodicTimer>(loop_, config_.check_period,
                                                [this] { sweep(); });
  timer_->start(config_.check_period);
}

void TenantGuard::stop() {
  if (timer_) timer_->stop();
}

double TenantGuard::cluster_utilization() const {
  const auto& nodes = cluster_.nodes();
  if (nodes.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& node : nodes) {
    sum += node->cpu().utilization(sim::seconds(5));
  }
  return sum / static_cast<double>(nodes.size());
}

void TenantGuard::sweep() {
  const double util = cluster_utilization();
  if (!throttling_ && util >= config_.cluster_alert_utilization) {
    // Protect the user's cluster: throttle its services at the gateway.
    throttling_ = true;
    for (const auto& service : cluster_.services()) {
      for (GatewayBackend* backend : gateway_.placement_view(service->id)) {
        const double rps = backend->stats_for(service->id).rps(loop_.now());
        backend->set_throttle(service->id,
                              std::max(1.0, rps * config_.throttle_fraction));
      }
    }
  } else if (throttling_ && util <= config_.cluster_recovered_utilization) {
    throttling_ = false;
    for (const auto& service : cluster_.services()) {
      for (GatewayBackend* backend : gateway_.placement_view(service->id)) {
        backend->clear_throttle(service->id);
      }
    }
  }
}

}  // namespace canal::core
