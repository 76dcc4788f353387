// Precise cloud resource scaling (§4.3, Figs 16/17/18, Table 4).
//
// A periodic water-level check over every gateway backend. When a backend
// crosses the alert threshold, root-cause analysis pinpoints the services
// driving the rise (trying the cross-backend intersection algorithm once,
// then falling back to the per-backend basic algorithm), and the scaler
// extends exactly those services:
//   Reuse — onto an existing low-water-level backend in the same AZ
//            (completes in tens of seconds: config install + LB update),
//   New   — onto a freshly provisioned backend when no backend has head-
//            room (completes in ~tens of minutes: VM creation, image load,
//            network setup, resource-pool registration).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "canal/gateway.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "telemetry/rca.h"

namespace canal::core {

enum class ScaleKind : std::uint8_t { kReuse, kNew };

struct ScalingEvent {
  ScaleKind kind = ScaleKind::kReuse;
  net::ServiceId service{};
  net::BackendId hot_backend{};
  net::BackendId target_backend{};
  sim::TimePoint alert_time = 0;      ///< threshold exceeded
  sim::TimePoint execute_time = 0;    ///< operation started
  sim::TimePoint finish_time = 0;     ///< service live on the new backend
  bool used_intersection = false;     ///< RCA intersection algorithm hit
};

struct ScalerConfig {
  /// Water level that triggers a backend alert.
  double alert_threshold = 0.7;
  /// Target water level after scaling; the scale-out size is chosen so the
  /// service's load spread over its new placement lands below this.
  double safety_threshold = 0.35;
  /// Backends below this are Reuse candidates (§4.3: "< 20%").
  double reuse_max_utilization = 0.2;
  /// Upper bound on backends added per scaling decision (scale gradually).
  std::size_t max_scale_out_per_event = 4;
  sim::Duration check_period = sim::seconds(5);
  sim::Duration analysis_window = sim::seconds(60);
  /// Reuse completion: config install + redirector/DNS updates.
  sim::Duration reuse_delay_mean = sim::seconds(25);
  double reuse_delay_sigma = 0.35;
  /// New completion: VM create + image + network + pool registration.
  sim::Duration new_delay_mean = sim::minutes(16);
  double new_delay_sigma = 0.22;
  /// Per-service cooldown so one alert doesn't trigger repeat scaling
  /// while a previous operation is still propagating.
  sim::Duration cooldown = sim::seconds(45);
  telemetry::RcaConfig rca;
};

class PreciseScaler {
 public:
  PreciseScaler(sim::EventLoop& loop, MeshGateway& gateway,
                ScalerConfig config, sim::Rng rng);
  ~PreciseScaler();

  void start();
  void stop();
  /// One synchronous sweep over all backends (tests / manual drives).
  void check_now();

  [[nodiscard]] const std::vector<ScalingEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t reuse_count() const;
  [[nodiscard]] std::size_t new_count() const;

  /// Fired when a scaling operation finishes (benches log timelines).
  void set_on_event(std::function<void(const ScalingEvent&)> cb) {
    on_event_ = std::move(cb);
  }

 private:
  void sweep();
  /// Scales `suspects` out of hot `backend`: RCA's pick, or the top
  /// service by RPS when RCA has none.
  void handle_alert(GatewayBackend& backend,
                    std::vector<net::ServiceId> suspects,
                    bool used_intersection);
  void scale_service(net::ServiceId service, GatewayBackend& hot,
                     bool used_intersection);
  [[nodiscard]] std::vector<net::ServiceId> analyze(GatewayBackend& backend);
  [[nodiscard]] bool in_cooldown(net::ServiceId service) const;

  sim::EventLoop& loop_;
  MeshGateway& gateway_;
  ScalerConfig config_;
  sim::Rng rng_;
  telemetry::RootCauseAnalyzer rca_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::vector<ScalingEvent> events_;
  std::vector<std::pair<net::ServiceId, sim::TimePoint>> cooldowns_;
  std::function<void(const ScalingEvent&)> on_event_;
};

}  // namespace canal::core
