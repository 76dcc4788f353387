#include "canal/scaling.h"

#include <algorithm>
#include <cmath>

namespace canal::core {
namespace {

sim::Duration lognormal_delay(sim::Rng& rng, sim::Duration mean, double sigma) {
  const double mean_s = sim::to_seconds(mean);
  const double mu = std::log(mean_s) - sigma * sigma / 2.0;
  return sim::seconds(rng.lognormal(mu, sigma));
}

}  // namespace

PreciseScaler::PreciseScaler(sim::EventLoop& loop, MeshGateway& gateway,
                             ScalerConfig config, sim::Rng rng)
    : loop_(loop),
      gateway_(gateway),
      config_(config),
      rng_(rng),
      rca_(config.rca) {}

PreciseScaler::~PreciseScaler() = default;

void PreciseScaler::start() {
  timer_ = std::make_unique<sim::PeriodicTimer>(loop_, config_.check_period,
                                                [this] { sweep(); });
  timer_->start(config_.check_period);
}

void PreciseScaler::stop() {
  if (timer_) timer_->stop();
}

void PreciseScaler::check_now() { sweep(); }

std::size_t PreciseScaler::reuse_count() const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(), [](const auto& e) {
        return e.kind == ScaleKind::kReuse;
      }));
}

std::size_t PreciseScaler::new_count() const {
  return events_.size() - reuse_count();
}

bool PreciseScaler::in_cooldown(net::ServiceId service) const {
  for (const auto& [svc, until] : cooldowns_) {
    if (svc == service && until > loop_.now()) return true;
  }
  return false;
}

void PreciseScaler::sweep() {
  std::vector<GatewayBackend*> hot;
  for (GatewayBackend* backend : gateway_.all_backends()) {
    if (backend->is_sandbox() || !backend->alive()) continue;
    if (backend->cpu_utilization(sim::seconds(5)) >= config_.alert_threshold) {
      hot.push_back(backend);
    }
  }
  // Root-cause analysis of each hot backend, once per sweep: a scaling
  // decision changes placements only after its delay, so nothing a
  // handle_alert() call does reaches the analysis of the next one.
  std::vector<std::vector<net::ServiceId>> suspects;
  suspects.reserve(hot.size());
  for (GatewayBackend* backend : hot) suspects.push_back(analyze(*backend));
  // Speculative intersection across simultaneously hot backends (run once,
  // §4.3); each backend reverts to its own suspects if it yields nothing.
  const std::vector<net::ServiceId> shared =
      hot.size() > 1 ? telemetry::RootCauseAnalyzer::intersect(suspects)
                     : std::vector<net::ServiceId>{};
  for (std::size_t i = 0; i < hot.size(); ++i) {
    handle_alert(*hot[i], shared.empty() ? suspects[i] : shared,
                 !shared.empty());
  }
}

std::vector<net::ServiceId> PreciseScaler::analyze(GatewayBackend& backend) {
  const sim::TimePoint hi = loop_.now();
  const sim::TimePoint lo = hi - config_.analysis_window;
  std::vector<double> load;
  for (const sim::TimePoint t : rca_.sample_times(lo, hi)) {
    load.push_back(backend.load_at(t));
  }
  // The backend publishes one service_rps{service="<id>"} series per
  // hosted service into its registry; RCA discovers them from there.
  return rca_.pinpoint(load, backend.metrics(), lo, hi);
}

void PreciseScaler::handle_alert(GatewayBackend& backend,
                                 std::vector<net::ServiceId> suspects,
                                 bool used_intersection) {
  if (suspects.empty()) {
    // Sustained plateau: trends have flattened, so correlation is
    // uninformative — fall back to the top service by RPS (§4.3's basic
    // sampling step).
    const auto top = backend.snapshot(sim::seconds(5)).top_services(1);
    if (!top.empty()) suspects.push_back(top.front().first);
  }
  for (const auto service : suspects) {
    if (!backend.hosts(service) || in_cooldown(service)) continue;
    scale_service(service, backend, used_intersection);
  }
}

void PreciseScaler::scale_service(net::ServiceId service, GatewayBackend& hot,
                                  bool used_intersection) {
  cooldowns_.emplace_back(service, loop_.now() + config_.cooldown);

  // Precise sizing: enough backends that the service's current load,
  // spread over the new placement, lands below the safety threshold.
  const double util = hot.cpu_utilization(sim::seconds(5));
  const auto placement = gateway_.placement_view(service);
  const auto current = std::max<std::size_t>(1, placement.size());
  const auto wanted = static_cast<std::size_t>(std::ceil(
      util * static_cast<double>(current) / config_.safety_threshold));
  std::size_t deficit = std::min(config_.max_scale_out_per_event,
                                 wanted > current ? wanted - current : 1);

  ScalingEvent event;
  event.service = service;
  event.hot_backend = hot.id();
  event.alert_time = loop_.now();
  event.execute_time = loop_.now();
  event.used_intersection = used_intersection;

  // Reuse first: same-AZ backends with low water levels that do not
  // already host the service.
  for (GatewayBackend* candidate : gateway_.backends_in(hot.az())) {
    if (deficit == 0) break;
    if (candidate->is_sandbox() || !candidate->alive() ||
        candidate->hosts(service)) {
      continue;
    }
    if (candidate->cpu_utilization(sim::seconds(5)) >
        config_.reuse_max_utilization) {
      continue;
    }
    --deficit;
    ScalingEvent reuse_event = event;
    reuse_event.kind = ScaleKind::kReuse;
    reuse_event.target_backend = candidate->id();
    const sim::Duration delay = lognormal_delay(
        rng_, config_.reuse_delay_mean, config_.reuse_delay_sigma);
    loop_.post(delay, [this, reuse_event, service,
                       target = candidate]() mutable {
      gateway_.extend_service(service, *target);
      reuse_event.finish_time = loop_.now();
      events_.push_back(reuse_event);
      if (on_event_) on_event_(reuse_event);
    });
  }

  // New: provision fresh backends for any remaining deficit.
  for (std::size_t i = 0; i < deficit; ++i) {
    ScalingEvent new_event = event;
    new_event.kind = ScaleKind::kNew;
    const sim::Duration delay =
        lognormal_delay(rng_, config_.new_delay_mean, config_.new_delay_sigma);
    loop_.post(delay, [this, new_event, service, az = hot.az()]() mutable {
      GatewayBackend& fresh = gateway_.add_backend(az);
      fresh.start_sampling(sim::seconds(1));
      gateway_.extend_service(service, fresh);
      new_event.target_backend = fresh.id();
      new_event.finish_time = loop_.now();
      events_.push_back(new_event);
      if (on_event_) on_event_(new_event);
    });
  }
}

}  // namespace canal::core
