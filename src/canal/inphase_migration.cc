#include "canal/inphase_migration.h"

#include <algorithm>

namespace canal::core {

std::vector<std::pair<net::ServiceId, net::ServiceId>>
InPhaseMigrationPlanner::find_in_phase(GatewayBackend& backend,
                                       sim::TimePoint lo,
                                       sim::TimePoint hi) const {
  std::vector<std::pair<net::ServiceId, net::ServiceId>> out;
  const auto& stats = backend.service_stats();
  for (auto a = stats.begin(); a != stats.end(); ++a) {
    for (auto b = std::next(a); b != stats.end(); ++b) {
      if (telemetry::in_phase(a->second->rps_history(),
                              b->second->rps_history(),
                              lo, hi, config_.hwhm_sample_points,
                              config_.correlation_threshold)) {
        out.emplace_back(a->first, b->first);
      }
    }
  }
  return out;
}

std::vector<net::ServiceId> InPhaseMigrationPlanner::select_services(
    GatewayBackend& backend,
    const std::vector<std::pair<net::ServiceId, net::ServiceId>>& pairs,
    sim::TimePoint now) const {
  std::vector<net::ServiceId> candidates;
  for (const auto& [a, b] : pairs) {
    if (std::find(candidates.begin(), candidates.end(), a) ==
        candidates.end()) {
      candidates.push_back(a);
    }
    if (std::find(candidates.begin(), candidates.end(), b) ==
        candidates.end()) {
      candidates.push_back(b);
    }
  }
  // Rank by recent RPS (carry-forward from the sampled history — bursty
  // aggregate workloads leave the instantaneous meters empty between
  // ticks), weighting HTTPS 3x (paper: ~3x resource cost per request).
  // Both keys are computed once per candidate: the long-session gauge
  // scans every replica's session table.
  struct Ranked {
    net::ServiceId id;
    double weighted_rps;
    std::size_t long_sessions;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(candidates.size());
  for (const net::ServiceId id : candidates) {
    auto& stats = backend.stats_for(id);
    const double rps =
        stats.rps_history().value_at(now).value_or(stats.rps(now));
    const double https = std::min(rps, stats.https_rate(now));
    ranked.push_back({id, rps + (config_.https_weight - 1.0) * https,
                      backend.long_sessions(id)});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& lhs, const Ranked& rhs) {
              if (lhs.weighted_rps != rhs.weighted_rps) {
                return lhs.weighted_rps > rhs.weighted_rps;
              }
              // Fewer long-lasting sessions migrate faster.
              if (lhs.long_sessions != rhs.long_sessions) {
                return lhs.long_sessions < rhs.long_sessions;
              }
              return net::id_value(lhs.id) < net::id_value(rhs.id);
            });
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    candidates[i] = ranked[i].id;
  }
  return candidates;
}

GatewayBackend* InPhaseMigrationPlanner::select_target(
    MeshGateway& gateway, GatewayBackend& source, net::ServiceId service,
    sim::TimePoint now) const {
  // HWHM window of the service's traffic over the pattern window.
  const auto& history = source.stats_for(service).rps_history();
  const auto window = sim::hwhm_window(history);
  if (window.end <= window.start) return nullptr;

  // Both sets read the candidates' busy-time checkpoints, which keep a
  // day of load at sim::CpuCore::kCheckpointWidth resolution.
  struct Candidate {
    GatewayBackend* backend;
    double g = 0.0;   // mean load of the buckets holding the HWHM points
    double g2 = 0.0;  // mean load over the full 24h pattern window
  };
  std::vector<Candidate> candidates;
  for (GatewayBackend* other : gateway.backends_in(source.az())) {
    if (other == &source || other->is_sandbox() || !other->alive() ||
        other->hosts(service)) {
      continue;
    }
    Candidate c{other};
    // Set G: ten fixed-interval samples during the HWHM period.
    const sim::Duration step =
        (window.end - window.start) /
        static_cast<sim::Duration>(config_.hwhm_sample_points);
    for (std::size_t i = 0; i < config_.hwhm_sample_points; ++i) {
      const sim::TimePoint t =
          window.start + static_cast<sim::Duration>(i) * step;
      c.g += other->coarse_load(t, t + sim::CpuCore::kCheckpointWidth);
    }
    c.g /= static_cast<double>(config_.hwhm_sample_points);
    candidates.push_back(c);
  }
  if (candidates.empty()) return nullptr;

  // Shortlist the five with the lowest G.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.g != b.g) return a.g < b.g;
              return net::id_value(a.backend->id()) <
                     net::id_value(b.backend->id());
            });
  if (candidates.size() > config_.shortlist_size) {
    candidates.resize(config_.shortlist_size);
  }
  // Set G': compare full 24h load of the shortlist; take the lowest.
  for (auto& c : candidates) {
    c.g2 = c.backend->coarse_load(now - config_.pattern_window, now);
  }
  const auto best = std::min_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) {
        if (a.g2 != b.g2) return a.g2 < b.g2;
        return net::id_value(a.backend->id()) < net::id_value(b.backend->id());
      });
  return best->backend;
}

std::vector<MigrationPlan> InPhaseMigrationPlanner::plan(
    MeshGateway& gateway, GatewayBackend& backend, sim::TimePoint now) const {
  std::vector<MigrationPlan> plans;
  const sim::TimePoint lo = now - config_.pattern_window;
  const auto pairs = find_in_phase(backend, lo, now);
  if (pairs.empty()) return plans;
  const auto services = select_services(backend, pairs, now);
  // Scatter the highest-RPS services first (principle (i): moving the big
  // contributors breaks the synchronized peak with the fewest migrations);
  // the lowest-ranked service stays put.
  for (std::size_t i = 0; i + 1 < services.size(); ++i) {
    GatewayBackend* target = select_target(gateway, backend, services[i], now);
    if (target == nullptr) continue;
    MigrationPlan plan;
    plan.service = services[i];
    plan.source = backend.id();
    plan.target = target->id();
    auto& stats = backend.stats_for(services[i]);
    plan.weighted_rps =
        stats.rps_history().value_at(now).value_or(stats.rps(now));
    plans.push_back(plan);
  }
  return plans;
}

}  // namespace canal::core
