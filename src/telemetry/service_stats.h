// Per-service rolling statistics collected at each gateway backend.
//
// These are the inputs to backend/service/tenant-level alerting (§4.2),
// root-cause analysis (§4.3), and traffic-pattern monitoring (§6.3).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/ids.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace canal::telemetry {

/// Live counters for one service on one backend.
class ServiceStats {
 public:
  explicit ServiceStats(sim::Duration rate_window = sim::seconds(5))
      : rps_(rate_window),
        new_sessions_(rate_window),
        https_requests_(rate_window) {}

  void on_request(sim::TimePoint now, bool new_session, bool https) {
    rps_.record(now);
    if (new_session) new_sessions_.record(now);
    if (https) https_requests_.record(now);
    // RPS history for trend analysis — sampled at most every 100 ms so
    // per-request accounting stays O(1) and the history stays compact.
    if (now - last_history_sample_ >= sim::milliseconds(100)) {
      last_history_sample_ = now;
      history_.record(now, rps_.rate(now));
    }
  }

  /// Bulk accounting for aggregate load injection (cloud-scale benches
  /// where per-request simulation is infeasible). `span` is the period the
  /// `count` requests represent; the RPS history records the true average
  /// rate count/span rather than the instantaneous meter value.
  void on_requests(sim::TimePoint now, double count, double new_sessions,
                   double https_count, sim::Duration span = sim::seconds(1)) {
    if (count <= 0) return;
    rps_.record(now, count);
    if (new_sessions > 0) new_sessions_.record(now, new_sessions);
    if (https_count > 0) https_requests_.record(now, https_count);
    history_.record(now, count / std::max(1e-9, sim::to_seconds(span)));
  }

  [[nodiscard]] double rps(sim::TimePoint now) const { return rps_.rate(now); }
  [[nodiscard]] double new_session_rate(sim::TimePoint now) const {
    return new_sessions_.rate(now);
  }
  [[nodiscard]] double https_rate(sim::TimePoint now) const {
    return https_requests_.rate(now);
  }
  [[nodiscard]] std::uint64_t total_requests() const noexcept {
    return rps_.total();
  }
  [[nodiscard]] const sim::TimeSeries& rps_history() const noexcept {
    return history_;
  }

 private:
  // Long retention: §6.3's HWHM analysis needs 24 h of pattern history.
  sim::TimeSeries history_{sim::hours(25)};
  sim::TimePoint last_history_sample_ = -sim::kSecond;
  sim::RateMeter rps_;
  sim::RateMeter new_sessions_;
  sim::RateMeter https_requests_;
};

/// Point-in-time view of one backend used by classifiers and scalers.
struct BackendSnapshot {
  sim::TimePoint taken = 0;
  double cpu_utilization = 0.0;
  double session_occupancy = 0.0;
  double total_rps = 0.0;
  double new_session_rate = 0.0;
  std::map<net::ServiceId, double> service_rps;  // ordered for determinism

  /// Top-k services by RPS, descending.
  [[nodiscard]] std::vector<std::pair<net::ServiceId, double>> top_services(
      std::size_t k) const;
};

}  // namespace canal::telemetry
