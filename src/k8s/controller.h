// Mesh control plane cost model: configuration build + southbound push.
//
// The paper's control-plane findings (§2.1, Figs 4/14/15) are about two
// costs: CPU to *build* per-proxy configurations (scales with proxies ×
// config size) and southbound bandwidth to *push* them (the I/O-bound
// step). This module models both: a shared southbound channel with finite
// bandwidth serializes transfers FIFO and records an occupancy time series.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace canal::k8s {

/// Shared downlink from controller to proxies (VPN / dedicated line in
/// cross-region deployments). Finite bandwidth; transfers queue FIFO.
class SouthboundChannel {
 public:
  SouthboundChannel(sim::EventLoop& loop, std::uint64_t bandwidth_bps,
                    sim::Duration latency = sim::microseconds(500))
      : loop_(loop), bandwidth_bps_(bandwidth_bps), latency_(latency) {}

  /// Queues a transfer; `done` fires when the last byte arrives.
  void transfer(std::uint64_t bytes, std::function<void()> done = nullptr);

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }
  /// Bits per second moved over the trailing window ending at `now`.
  [[nodiscard]] double occupancy_bps(sim::TimePoint now,
                                     sim::Duration window) const;
  /// Peak bandwidth (bps) ever observed over 1 s windows.
  [[nodiscard]] double peak_bps() const noexcept { return peak_bps_; }
  /// Time the channel drains (becomes idle) for the current queue.
  [[nodiscard]] sim::TimePoint busy_until() const noexcept {
    return busy_until_;
  }

 private:
  sim::EventLoop& loop_;
  std::uint64_t bandwidth_bps_;
  sim::Duration latency_;
  sim::TimePoint busy_until_ = 0;
  std::uint64_t total_bytes_ = 0;
  sim::TimeSeries sent_bytes_{sim::minutes(10)};
  double peak_bps_ = 0.0;
};

/// One proxy that needs configuration during an update.
struct ConfigTarget {
  std::string name;
  std::uint64_t config_bytes = 0;
};

/// Result of a completed configuration round.
struct PushReport {
  sim::Duration build_time = 0;
  sim::Duration total_time = 0;  // build + push (last byte delivered)
  std::uint64_t bytes_pushed = 0;
  std::size_t targets = 0;
};

/// Controller cost constants.
struct ControllerCostModel {
  /// CPU nanoseconds per configuration byte built (xDS marshalling etc.).
  double build_ns_per_byte = 18.0;
  /// Fixed per-target build overhead.
  sim::Duration build_per_target = sim::microseconds(150);
};

/// The mesh controller. Builds configs on its own cores, then pushes them
/// over the southbound channel.
class Controller {
 public:
  /// Fires once per target when that target's last byte arrives (the
  /// per-proxy propagation delay of the epoch layer, propagation.h).
  /// `index` is the target's position in the pushed vector.
  using TargetDelivered =
      std::function<void(std::size_t index, const ConfigTarget& target)>;

  Controller(sim::EventLoop& loop, std::size_t cores,
             SouthboundChannel& southbound,
             ControllerCostModel model = ControllerCostModel{})
      : loop_(loop),
        cpu_(loop, cores, sim::CpuCore::kNoHistory),
        southbound_(southbound),
        model_(model) {}

  /// Builds and pushes configuration for every target; `done` receives the
  /// report when the last target has its config delivered. When
  /// `on_delivered` is set it fires per target at that target's own
  /// delivery time — targets land one by one as the FIFO southbound
  /// channel drains, not all at once when the round completes.
  void push_update(std::vector<ConfigTarget> targets,
                   std::function<void(PushReport)> done,
                   TargetDelivered on_delivered = nullptr);

  [[nodiscard]] sim::CpuSet& cpu() noexcept { return cpu_; }
  [[nodiscard]] std::uint64_t updates_completed() const noexcept {
    return updates_completed_;
  }

 private:
  sim::EventLoop& loop_;
  sim::CpuSet cpu_;
  SouthboundChannel& southbound_;
  ControllerCostModel model_;
  std::uint64_t updates_completed_ = 0;
};

}  // namespace canal::k8s
