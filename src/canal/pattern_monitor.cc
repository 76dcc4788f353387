#include "canal/pattern_monitor.h"

#include <algorithm>

namespace canal::core {

TrafficPatternMonitor::TrafficPatternMonitor(sim::EventLoop& loop,
                                             MeshGateway& gateway,
                                             PatternMonitorConfig config)
    : loop_(loop),
      gateway_(gateway),
      config_(config),
      planner_(config.planner) {}

TrafficPatternMonitor::~TrafficPatternMonitor() = default;

void TrafficPatternMonitor::start() {
  timer_ = std::make_unique<sim::PeriodicTimer>(
      loop_, config_.evaluation_period, [this] { evaluate_now(); });
  timer_->start(config_.evaluation_period);
}

void TrafficPatternMonitor::stop() {
  if (timer_) timer_->stop();
}

void TrafficPatternMonitor::evaluate_now() {
  for (GatewayBackend* backend : gateway_.all_backends()) {
    if (backend->is_sandbox() || !backend->alive()) continue;
    if (backend->cpu_utilization(config_.utilization_window) <
        config_.min_source_utilization) {
      continue;
    }
    evaluate_backend(*backend);
  }
}

void TrafficPatternMonitor::evaluate_backend(GatewayBackend& backend) {
  // Skip backends with a migration already in flight from them.
  for (const auto& m : migrations_) {
    if (!m.completed && m.plan.source == backend.id()) return;
  }
  const auto plans = planner_.plan(gateway_, backend, loop_.now());
  for (const auto& plan : plans) {
    execute(plan);
  }
}

void TrafficPatternMonitor::execute(const MigrationPlan& plan) {
  GatewayBackend* target = gateway_.find_backend(plan.target);
  GatewayBackend* source = gateway_.find_backend(plan.source);
  if (target == nullptr || source == nullptr) return;

  // Extend to the complementary target; DNS starts steering new
  // connections there (the target's water level is lower by construction).
  gateway_.extend_service(plan.service, *target);

  ExecutedMigration record;
  record.plan = plan;
  record.started = loop_.now();
  migrations_.push_back(record);
  poll_drain(migrations_.size() - 1);
}

void TrafficPatternMonitor::poll_drain(std::size_t index) {
  GatewayBackend* source = gateway_.find_backend(migrations_[index].plan.source);
  const auto service = migrations_[index].plan.service;
  if (source == nullptr || source->sessions_for(service) == 0) {
    // Source drained: retire its copy of the service — unless that would
    // leave the service with fewer than two placements (availability).
    if (source != nullptr && gateway_.placement_view(service).size() > 2) {
      gateway_.retract_service(service, *source);
    }
    migrations_[index].completed = loop_.now();
    return;
  }
  loop_.post(sim::minutes(1), [this, index] { poll_drain(index); });
}

std::size_t TrafficPatternMonitor::in_progress() const {
  return static_cast<std::size_t>(
      std::count_if(migrations_.begin(), migrations_.end(),
                    [](const auto& m) { return !m.completed.has_value(); }));
}

}  // namespace canal::core
