#include "k8s/objects.h"

#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>

namespace canal::k8s {

sim::Duration AppProfile::sample_service_time(sim::Rng& rng) const {
  const sim::Duration mode_mean =
      rng.chance(fast_fraction) ? fast_service_mean : slow_service_mean;
  // Lognormal around the mode mean: mu chosen so E[X] == mode_mean.
  const double mean_s = sim::to_seconds(mode_mean);
  const double mu = std::log(mean_s) - sigma * sigma / 2.0;
  return sim::seconds(rng.lognormal(mu, sigma));
}

Pod::Pod(sim::EventLoop& loop, net::PodId id, net::ServiceId service,
         net::TenantId tenant, Node& node, net::Ipv4Addr ip,
         AppProfile profile, sim::Rng rng)
    : loop_(loop),
      id_(id),
      service_(service),
      tenant_(tenant),
      node_(node),
      ip_(ip),
      profile_(profile),
      rng_(rng) {}

void Pod::handle_request(const http::Request& req, ResponseCallback done) {
  AppCall* call = calls_.acquire();
  call->self = this;
  call->done = std::move(done);
  if (phase_ != PodPhase::kRunning) {
    // Not the steady path: a fresh HeaderMap (dropping pooled capacity) is
    // fine here, and simpler than purging stale 200-path headers.
    call->resp.status = 503;
    call->resp.reason.assign(http::reason_phrase(503));
    call->resp.headers = http::HeaderMap{};
    call->resp.body.clear();
    loop_.post(0, [call] {
      auto cb = std::move(call->done);
      cb(call->resp);  // `resp` lives in the slot: release only after
      call->self->calls_.release(call);
    });
    return;
  }
  ++requests_served_;
  call->app_error = rng_.chance(profile_.app_error_rate);
  call->think = profile_.sample_service_time(rng_);
  // CPU work is charged to the node; think time (I/O, downstream calls)
  // elapses without occupying a core. Only the request path survives into
  // the response (echoed as X-Request-Path), so copy just that string —
  // into pooled storage whose capacity is reused across requests.
  call->path = req.path;
  node_.cpu().execute(profile_.cpu_per_request, [call] {
    call->self->loop_.post(call->think, [call] {
      Pod& self = *call->self;
      http::Response& resp = call->resp;
      const std::uint32_t body_bytes = self.profile_.response_bytes;
      resp.status = call->app_error ? 500 : 200;
      resp.reason.assign(http::reason_phrase(resp.status));
      resp.body.assign(body_bytes, 'x');
      // A pooled response's headers are either empty (fresh slot, or the
      // 503 path reset them) or already [Content-Length, X-Request-Path]
      // from the last 200: value_slot() overwrites those in place, so the
      // entries keep the order set() would give them, and reuse their
      // capacity. Each slot is filled before the next value_slot() call,
      // which may invalidate it.
      char digits[std::numeric_limits<std::uint32_t>::digits10 + 1];
      const auto length = std::to_chars(digits, std::end(digits), body_bytes);
      resp.headers.value_slot("Content-Length").assign(digits, length.ptr);
      resp.headers.value_slot("X-Request-Path").assign(call->path);
      auto cb = std::move(call->done);
      cb(resp);  // `resp` lives in the slot: release only after
      self.calls_.release(call);
    });
  });
}

void Pod::handle_health_probe() { ++health_probes_; }

}  // namespace canal::k8s
