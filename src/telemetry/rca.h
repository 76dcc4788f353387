// Root-cause analysis for precise scaling (§4.3).
//
// When a backend's water level crosses the threshold, blind scaling of
// every hosted service is wasteful. RCA pinpoints the culprit:
//   basic algorithm — sample per-service RPS on the hot backend and keep
//   the top services whose RPS *trend* aligns with the backend's
//   water-level trend;
//   intersection algorithm — when several backends heat up together,
//   intersect their per-backend suspects (run once, speculatively; fall
//   back to the basic algorithm if the intersection is empty).
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/ids.h"
#include "sim/stats.h"
#include "telemetry/fairness.h"
#include "telemetry/registry.h"

namespace canal::telemetry {

struct RcaConfig {
  /// Services examined per backend (top by RPS).
  std::size_t top_k = 5;
  /// Minimum Pearson correlation between service RPS and backend load.
  double correlation_threshold = 0.6;
  /// Minimum positive RPS slope (requests/s per second) to be a suspect.
  double min_trend = 0.1;
  /// Samples taken across the analysis window.
  std::size_t sample_points = 12;
  /// Tenant attribution (pinpoint_tenants): a tenant is a throughput
  /// suspect when its request share exceeds this multiple of the fair
  /// share 1/n.
  double tenant_share_multiple = 2.0;
  /// ...and an error-burst suspect when its error rate exceeds this.
  double tenant_error_threshold = 0.05;
};

/// A tenant the analyzer holds responsible for a fairness regression.
struct TenantSuspect {
  net::TenantId tenant{};
  /// How far past its threshold the tenant is (share / (multiple * fair
  /// share), or error_rate / threshold) — suspects sort by this.
  double score = 0.0;
  /// "throughput-share" or "error-burst".
  std::string reason;
};

class RootCauseAnalyzer {
 public:
  explicit RootCauseAnalyzer(RcaConfig config = {}) : config_(config) {}

  /// The times the analysis samples [window_lo, window_hi] at: `sample_points`
  /// evenly spaced points from window_lo; none when there are fewer than
  /// two points or the window is empty.
  [[nodiscard]] std::vector<sim::TimePoint> sample_times(
      sim::TimePoint window_lo, sim::TimePoint window_hi) const;

  /// Basic algorithm over one backend. `load_samples` is the backend's
  /// water level at sample_times(window_lo, window_hi); `service_rps` maps
  /// the backend's services to their RPS histories. Returns suspected
  /// services ordered by correlation strength.
  [[nodiscard]] std::vector<net::ServiceId> pinpoint(
      std::span<const double> load_samples,
      const std::map<net::ServiceId, const sim::TimeSeries*>& service_rps,
      sim::TimePoint window_lo, sim::TimePoint window_hi) const;

  /// Registry-driven variant: discovers every `service_rps{service="<id>"}`
  /// series in `metrics` (the backend links one per hosted service) and
  /// runs the basic algorithm over them. Series without a parseable
  /// service label are ignored.
  [[nodiscard]] std::vector<net::ServiceId> pinpoint(
      std::span<const double> load_samples, const MetricsRegistry& metrics,
      sim::TimePoint window_lo, sim::TimePoint window_hi) const;

  /// Tenant attribution over a fairness report: flags tenants whose
  /// throughput share exceeds `tenant_share_multiple` times the fair
  /// share (the noisy neighbor stealing capacity) and tenants whose error
  /// rate exceeds `tenant_error_threshold` (the source of an error
  /// burst). Suspects are ordered by score, strongest first; a tenant can
  /// appear once per reason.
  [[nodiscard]] std::vector<TenantSuspect> pinpoint_tenants(
      const FairnessReport& report) const;

  /// Intersection algorithm across simultaneously hot backends: services
  /// suspected on *every* backend. Empty result => caller reverts to the
  /// basic algorithm (§4.3).
  [[nodiscard]] static std::vector<net::ServiceId> intersect(
      const std::vector<std::vector<net::ServiceId>>& per_backend_suspects);

 private:
  RcaConfig config_;
};

}  // namespace canal::telemetry
