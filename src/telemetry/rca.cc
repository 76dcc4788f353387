#include "telemetry/rca.h"

#include <algorithm>

namespace canal::telemetry {

std::vector<sim::TimePoint> RootCauseAnalyzer::sample_times(
    sim::TimePoint window_lo, sim::TimePoint window_hi) const {
  std::vector<sim::TimePoint> out;
  const std::size_t points = config_.sample_points;
  if (points < 2 || window_hi <= window_lo) return out;
  out.reserve(points);
  const sim::Duration step =
      (window_hi - window_lo) / static_cast<sim::Duration>(points - 1);
  for (std::size_t i = 0; i < points; ++i) {
    out.push_back(window_lo + static_cast<sim::Duration>(i) * step);
  }
  return out;
}

std::vector<net::ServiceId> RootCauseAnalyzer::pinpoint(
    std::span<const double> load_samples,
    const std::map<net::ServiceId, const sim::TimeSeries*>& service_rps,
    sim::TimePoint window_lo, sim::TimePoint window_hi) const {
  if (load_samples.empty()) return {};
  const std::vector<sim::TimePoint> times = sample_times(window_lo, window_hi);

  // Rank services by current RPS and keep the top-k candidates.
  std::vector<std::pair<net::ServiceId, const sim::TimeSeries*>> candidates(
      service_rps.begin(), service_rps.end());
  std::sort(candidates.begin(), candidates.end(),
            [&](const auto& a, const auto& b) {
              const double ra =
                  a.second->value_at(window_hi).value_or(0.0);
              const double rb =
                  b.second->value_at(window_hi).value_or(0.0);
              if (ra != rb) return ra > rb;
              return net::id_value(a.first) < net::id_value(b.first);
            });
  if (candidates.size() > config_.top_k) candidates.resize(config_.top_k);

  std::vector<std::pair<net::ServiceId, double>> suspects;
  for (const auto& [service, series] : candidates) {
    if (series == nullptr) continue;
    // Carry each service's last RPS reading forward to the sample times.
    std::vector<double> rps_samples;
    rps_samples.reserve(times.size());
    for (const sim::TimePoint t : times) {
      rps_samples.push_back(series->value_at(t).value_or(0.0));
    }
    const double corr = sim::pearson(rps_samples, load_samples);
    const double trend = series->trend_in(window_lo, window_hi);
    if (corr >= config_.correlation_threshold && trend >= config_.min_trend) {
      suspects.emplace_back(service, corr);
    }
  }
  std::sort(suspects.begin(), suspects.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return net::id_value(a.first) < net::id_value(b.first);
  });

  std::vector<net::ServiceId> out;
  out.reserve(suspects.size());
  for (const auto& [service, corr] : suspects) out.push_back(service);
  return out;
}

std::vector<net::ServiceId> RootCauseAnalyzer::pinpoint(
    std::span<const double> load_samples, const MetricsRegistry& metrics,
    sim::TimePoint window_lo, sim::TimePoint window_hi) const {
  std::map<net::ServiceId, const sim::TimeSeries*> service_rps;
  for (const auto& [labels, series] :
       metrics.series_named(kServiceRpsSeries)) {
    const auto label_it = labels.find(std::string(kServiceLabel));
    if (label_it == labels.end() || series == nullptr) continue;
    const std::string& value = label_it->second;
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    service_rps[static_cast<net::ServiceId>(std::stoull(value))] = series;
  }
  return pinpoint(load_samples, service_rps, window_lo, window_hi);
}

std::vector<TenantSuspect> RootCauseAnalyzer::pinpoint_tenants(
    const FairnessReport& report) const {
  std::vector<TenantSuspect> suspects;
  if (report.tenants.empty()) return suspects;
  const double fair_share = 1.0 / static_cast<double>(report.tenants.size());
  const double share_limit = config_.tenant_share_multiple * fair_share;
  for (const TenantFairness& tf : report.tenants) {
    if (share_limit > 0.0 && tf.share > share_limit) {
      suspects.push_back(TenantSuspect{tf.tenant, tf.share / share_limit,
                                       "throughput-share"});
    }
    if (config_.tenant_error_threshold > 0.0 &&
        tf.error_rate > config_.tenant_error_threshold) {
      suspects.push_back(TenantSuspect{
          tf.tenant, tf.error_rate / config_.tenant_error_threshold,
          "error-burst"});
    }
  }
  std::sort(suspects.begin(), suspects.end(),
            [](const TenantSuspect& a, const TenantSuspect& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.reason < b.reason;
            });
  return suspects;
}

std::vector<net::ServiceId> RootCauseAnalyzer::intersect(
    const std::vector<std::vector<net::ServiceId>>& per_backend_suspects) {
  if (per_backend_suspects.empty()) return {};
  std::vector<net::ServiceId> acc = per_backend_suspects.front();
  for (std::size_t i = 1; i < per_backend_suspects.size(); ++i) {
    const auto& next = per_backend_suspects[i];
    std::vector<net::ServiceId> kept;
    for (const auto service : acc) {
      if (std::find(next.begin(), next.end(), service) != next.end()) {
        kept.push_back(service);
      }
    }
    acc = std::move(kept);
    if (acc.empty()) break;
  }
  return acc;
}

}  // namespace canal::telemetry
