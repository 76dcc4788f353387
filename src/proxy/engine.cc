#include "proxy/engine.h"

#include <charconv>
#include <utility>

namespace canal::proxy {

ProxyEngine::ProxyEngine(sim::EventLoop& loop, sim::CpuSet& cpu, Config config,
                         sim::Rng rng)
    : loop_(loop),
      cpu_(cpu),
      config_(std::move(config)),
      rng_(rng),
      sessions_(config_.session_capacity),
      span_main_(config_.name + (config_.l7 ? "/l7" : "/l4")),
      span_resp_(config_.name + (config_.l7 ? "/l7-resp" : "/l4-resp")),
      span_inbound_(config_.name + "/inbound"),
      span_handshake_(config_.name + "/handshake"),
      span_reject_(config_.name + "/reject"),
      span_inbound_reject_(config_.name + "/inbound-reject"),
      span_fastpath_(config_.name + "/fastpath_hit") {}

void ProxyEngine::set_route_table(net::ServiceId service,
                                  http::RouteTable table) {
  // Rule pointers cached by the fastpath go stale: move the epoch.
  ++route_epoch_;
  routes_[service] = std::move(table);
}

const http::RouteTable* ProxyEngine::route_table(
    net::ServiceId service) const {
  const auto it = routes_.find(service);
  return it == routes_.end() ? nullptr : &it->second;
}

std::size_t ProxyEngine::config_bytes() const {
  std::size_t total = 512;  // listener/bootstrap framing
  for (const auto& [service, table] : routes_) {
    total += table.config_bytes() + 32;
  }
  return total;
}

sim::Duration ProxyEngine::request_cpu_cost(std::uint64_t bytes,
                                            bool new_connection) const {
  const auto& costs = config_.costs;
  const std::uint64_t segments = bytes / costs.mss_bytes + 1;
  sim::Duration cost = costs.redirect_cost(config_.redirect, bytes, segments);
  cost += config_.l7 ? costs.l7_process : costs.l4_forward;
  cost += costs.memcpy_cost(bytes);
  if (config_.mtls) {
    cost += costs.crypto.symmetric_cost(bytes);
    if (new_connection) {
      // Symmetric parts of the handshake (record protection setup);
      // the asymmetric part goes through the handshake executor.
      cost += costs.crypto.symmetric_cost(512);
    }
  }
  return cost;
}

void ProxyEngine::handle_request(const net::FiveTuple& tuple,
                                 net::ServiceId dst_service,
                                 bool new_connection, http::Request& req,
                                 RequestCallback done,
                                 telemetry::Trace* trace) {
  ++requests_total_;
  const std::uint64_t bytes = req.wire_size();
  bytes_proxied_ += bytes;
  const telemetry::Component component =
      config_.l7 ? telemetry::Component::kL7 : telemetry::Component::kL4;

  if (new_connection) {
    if (!sessions_.insert(tuple, dst_service, loop_.now())) {
      ++requests_failed_;
      RequestOutcome outcome;
      outcome.status = 503;  // session table exhausted
      if (trace != nullptr) {
        trace->add(span_reject_, component, loop_.now(),
                   loop_.now(), 0, bytes, outcome.status);
      }
      loop_.post(0, [done = std::move(done), outcome] { done(outcome); });
      return;
    }
  } else {
    // Keep-alive refresh only; the session pointer is not needed here.
    static_cast<void>(sessions_.touch(tuple, loop_.now()));
  }
  if (observer_) observer_(dst_service, tuple, bytes, new_connection);

  CallState* cs = calls_.acquire();
  cs->self = this;
  cs->tuple = tuple;
  cs->dst_service = dst_service;
  cs->req = &req;
  cs->bytes = bytes;
  cs->hash = net::flow_hash(tuple);
  cs->component = component;
  cs->trace = trace;
  cs->done = std::move(done);
  const sim::Duration cpu_cost = request_cpu_cost(bytes, new_connection);
  cs->on_path = static_cast<sim::Duration>(
      static_cast<double>(cpu_cost) * (1.0 - config_.off_path_fraction));
  cs->off_path = cpu_cost - cs->on_path;

  if (config_.mtls && new_connection && handshake_executor_) {
    ++handshakes_;
    if (trace == nullptr) {
      handshake_executor_([cs] { cs->self->continue_request(cs); });
    } else {
      cs->hs_start = loop_.now();
      handshake_executor_([cs] {
        cs->trace->add(cs->self->span_handshake_,
                       telemetry::Component::kHandshake, cs->hs_start,
                       cs->self->loop_.now());
        cs->self->continue_request(cs);
      });
    }
  } else {
    continue_request(cs);
  }
}

void ProxyEngine::continue_request(CallState* cs) {
  // The pinned core is deterministic, so its backlog before enqueueing is
  // exactly the FCFS queue wait this job will experience.
  cs->cpu_start = loop_.now();
  cs->queue_wait =
      cs->trace != nullptr ? cpu_.core(cs->hash % cpu_.size()).backlog() : 0;
  cpu_.execute_pinned(cs->hash, cs->on_path, [cs] {
    ProxyEngine& self = *cs->self;
    if (cs->trace != nullptr) {
      cs->trace->add(self.span_main_, cs->component, cs->cpu_start,
                     self.loop_.now(), cs->queue_wait, cs->bytes);
    }
    self.finish_request(cs->tuple, cs->dst_service, *cs->req,
                        std::move(cs->done), cs->trace);
    self.calls_.release(cs);
  });
  // Off-path work (logging/stats) consumes pool capacity without gating
  // this request's completion; it lands on the least-loaded core so the
  // same flow's next hop through a shared pool isn't blocked by it.
  if (cs->off_path > 0) cpu_.execute(cs->off_path);
}

void ProxyEngine::finish_request(const net::FiveTuple& tuple,
                                 net::ServiceId dst_service,
                                 http::Request& req, RequestCallback done,
                                 telemetry::Trace* trace) {
  RequestOutcome outcome;
  UpstreamCluster* cluster = nullptr;

  const std::uint64_t epoch = fastpath_epoch();
  const FastpathEntry* entry = fastpath_.find(tuple, epoch);
  if (entry != nullptr && entry->service != dst_service) entry = nullptr;

  if (config_.l7) {
    if (entry != nullptr && entry->rule != nullptr &&
        entry->rule->match.matches(req)) {
      // Fastpath hit: the memoized rule is the table's first, so the
      // re-verified match IS the first-match-wins result. Consume the
      // uniform draw and apply mutations exactly as resolve() would.
      ++fastpath_hits_;
      const http::RouteRule* rule = entry->rule;
      const std::size_t idx = rule->action.pick_index(rng_.uniform());
      cluster = entry->clusters[idx];
      rule->apply(req);
      if (trace != nullptr) {
        trace->add(span_fastpath_, telemetry::Component::kFastpath,
                   loop_.now(), loop_.now());
      }
      if (cluster == nullptr) {
        ++requests_failed_;
        outcome.status = 502;
        done(outcome);
        return;
      }
      outcome.cluster = cluster->name();
    } else {
      ++fastpath_misses_;
      const auto it = routes_.find(dst_service);
      if (it == routes_.end()) {
        ++requests_failed_;
        outcome.status = 404;
        done(outcome);
        return;
      }
      // Route resolution may mutate headers/path per the matched action.
      const auto result = it->second.resolve(req, rng_.uniform());
      if (!result) {
        ++requests_failed_;
        outcome.status = 404;
        done(outcome);
        return;
      }
      if (result->direct_response) {
        outcome.status = result->direct_status;
        outcome.ok = result->direct_status < 400;
        done(outcome);
        return;
      }
      cluster = clusters_.find(result->cluster);
      if (cluster == nullptr) {
        ++requests_failed_;
        outcome.status = 502;
        done(outcome);
        return;
      }
      outcome.cluster = cluster->name();  // stable storage, not the local
      // Memoize only first-rule matches: re-verifying that rule's match
      // on a hit then preserves first-match-wins exactly.
      const auto& weighted = result->rule->action.clusters;
      if (result->rule == &it->second.rules().front() &&
          weighted.size() <= FastpathEntry::kMaxClusters) {
        FastpathEntry memo{dst_service, result->rule, {},
                           static_cast<std::uint8_t>(weighted.size())};
        for (std::size_t i = 0; i < weighted.size(); ++i) {
          memo.clusters[i] = clusters_.find(weighted[i].cluster);
        }
        fastpath_.insert(tuple, epoch, memo);
      }
    }
  } else {
    if (entry != nullptr) {
      // L4 fastpath: skip the per-request cluster-name build + lookup.
      ++fastpath_hits_;
      cluster = entry->clusters[0];
      if (trace != nullptr) {
        trace->add(span_fastpath_, telemetry::Component::kFastpath,
                   loop_.now(), loop_.now());
      }
    } else {
      ++fastpath_misses_;
      // L4: the "cluster" is the destination service itself. Its name is
      // built on the stack: "service-<id>" outgrows a std::string's
      // small-string buffer once tenant bits enter the id.
      constexpr std::string_view kPrefix = "service-";
      char name[kPrefix.size() + 20];
      kPrefix.copy(name, kPrefix.size());
      const auto digits =
          std::to_chars(name + kPrefix.size(), name + sizeof(name),
                        net::id_value(dst_service));
      cluster = clusters_.find(
          std::string_view(name, static_cast<std::size_t>(digits.ptr - name)));
      if (cluster != nullptr) {
        fastpath_.insert(tuple, epoch,
                         FastpathEntry{dst_service, nullptr, {cluster}, 1});
      }
    }
    if (cluster == nullptr) {
      ++requests_failed_;
      outcome.status = 502;
      done(outcome);
      return;
    }
    outcome.cluster = cluster->name();
  }

  UpstreamEndpoint* endpoint = cluster->pick(rng_);
  if (endpoint == nullptr) {
    ++requests_failed_;
    outcome.status = 503;
    done(outcome);
    return;
  }
  ++endpoint->active_requests;
  outcome.ok = true;
  outcome.status = 200;
  outcome.endpoint = endpoint;
  done(outcome);
}

void ProxyEngine::handle_inbound(const net::FiveTuple& tuple,
                                 net::ServiceId dst_service,
                                 bool new_connection, std::uint64_t bytes,
                                 std::function<void(bool, int)> done,
                                 telemetry::Trace* trace) {
  ++requests_total_;
  bytes_proxied_ += bytes;
  const telemetry::Component component =
      config_.l7 ? telemetry::Component::kL7 : telemetry::Component::kL4;
  if (new_connection) {
    if (!sessions_.insert(tuple, dst_service, loop_.now())) {
      ++requests_failed_;
      if (trace != nullptr) {
        trace->add(span_inbound_reject_, component, loop_.now(),
                   loop_.now(), 0, bytes, 503);
      }
      loop_.post(0, [done = std::move(done)] { done(false, 503); });
      return;
    }
  } else {
    // Keep-alive refresh only; the session pointer is not needed here.
    static_cast<void>(sessions_.touch(tuple, loop_.now()));
  }
  if (observer_) observer_(dst_service, tuple, bytes, new_connection);

  CallState* cs = calls_.acquire();
  cs->self = this;
  cs->bytes = bytes;
  cs->hash = net::flow_hash(tuple);
  cs->component = component;
  cs->trace = trace;
  cs->done_inbound = std::move(done);
  const sim::Duration cpu_cost = request_cpu_cost(bytes, new_connection);
  cs->on_path = static_cast<sim::Duration>(
      static_cast<double>(cpu_cost) * (1.0 - config_.off_path_fraction));
  cs->off_path = cpu_cost - cs->on_path;
  if (config_.mtls && new_connection && handshake_executor_) {
    ++handshakes_;
    if (trace == nullptr) {
      handshake_executor_([cs] { cs->self->continue_inbound(cs); });
    } else {
      cs->hs_start = loop_.now();
      handshake_executor_([cs] {
        cs->trace->add(cs->self->span_handshake_,
                       telemetry::Component::kHandshake, cs->hs_start,
                       cs->self->loop_.now());
        cs->self->continue_inbound(cs);
      });
    }
  } else {
    continue_inbound(cs);
  }
}

void ProxyEngine::continue_inbound(CallState* cs) {
  cs->cpu_start = loop_.now();
  cs->queue_wait =
      cs->trace != nullptr ? cpu_.core(cs->hash % cpu_.size()).backlog() : 0;
  cpu_.execute_pinned(cs->hash, cs->on_path, [cs] {
    ProxyEngine& self = *cs->self;
    if (cs->trace != nullptr) {
      cs->trace->add(self.span_inbound_, cs->component, cs->cpu_start,
                     self.loop_.now(), cs->queue_wait, cs->bytes);
    }
    auto done = std::move(cs->done_inbound);
    self.calls_.release(cs);
    done(true, 200);
  });
  if (cs->off_path > 0) cpu_.execute(cs->off_path);
}

void ProxyEngine::handle_response(const net::FiveTuple& tuple,
                                  std::uint64_t bytes,
                                  std::function<void()> done,
                                  telemetry::Trace* trace) {
  bytes_proxied_ += bytes;
  const auto& costs = config_.costs;
  const std::uint64_t segments = bytes / costs.mss_bytes + 1;
  sim::Duration cost = costs.redirect_cost(config_.redirect, bytes, segments);
  cost += (config_.l7 ? costs.l7_response_process : costs.l4_forward) +
          costs.memcpy_cost(bytes);
  if (config_.mtls) cost += costs.crypto.symmetric_cost(bytes);
  const auto on_path = static_cast<sim::Duration>(
      static_cast<double>(cost) * (1.0 - config_.off_path_fraction));
  const std::uint64_t hash = net::flow_hash(tuple);
  if (trace == nullptr) {
    cpu_.execute_pinned(hash, on_path, std::move(done));
  } else {
    const sim::TimePoint cpu_start = loop_.now();
    const sim::Duration queue_wait = cpu_.core(hash % cpu_.size()).backlog();
    const telemetry::Component component =
        config_.l7 ? telemetry::Component::kL7 : telemetry::Component::kL4;
    cpu_.execute_pinned(
        hash, on_path,
        [this, bytes, component, trace, cpu_start, queue_wait,
         done = std::move(done)] {
          trace->add(span_resp_, component, cpu_start, loop_.now(),
                     queue_wait, bytes);
          done();
        });
  }
  if (cost > on_path) cpu_.execute(cost - on_path);
}

void ProxyEngine::close_connection(const net::FiveTuple& tuple) {
  sessions_.remove(tuple);
}

}  // namespace canal::proxy
