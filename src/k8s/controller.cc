#include "k8s/controller.h"

#include <algorithm>
#include <memory>

namespace canal::k8s {

void SouthboundChannel::transfer(std::uint64_t bytes,
                                 std::function<void()> done) {
  const sim::Duration serialization = static_cast<sim::Duration>(
      static_cast<double>(bytes) * 8.0 / static_cast<double>(bandwidth_bps_) *
      static_cast<double>(sim::kSecond));
  const sim::TimePoint start = std::max(busy_until_, loop_.now());
  busy_until_ = start + serialization;
  total_bytes_ += bytes;
  sent_bytes_.record(busy_until_, static_cast<double>(bytes));
  const double window_bps =
      occupancy_bps(busy_until_, sim::kSecond);
  peak_bps_ = std::max(peak_bps_, window_bps);
  loop_.post_at(busy_until_ + latency_, [done = std::move(done)] {
    if (done) done();
  });
}

double SouthboundChannel::occupancy_bps(sim::TimePoint now,
                                        sim::Duration window) const {
  if (window <= 0) return 0.0;
  const double bytes = sent_bytes_.sum_in(now - window, now);
  return bytes * 8.0 / sim::to_seconds(window);
}

void Controller::push_update(std::vector<ConfigTarget> targets,
                             std::function<void(PushReport)> done,
                             TargetDelivered on_delivered) {
  const sim::TimePoint started = loop_.now();

  // Build phase: CPU-bound, parallel across controller cores.
  sim::TimePoint build_done = started;
  std::uint64_t total_bytes = 0;
  for (const auto& target : targets) {
    const auto build_cost = static_cast<sim::Duration>(
        model_.build_ns_per_byte * static_cast<double>(target.config_bytes) +
        static_cast<double>(model_.build_per_target));
    build_done = std::max(build_done, cpu_.execute(build_cost));
    total_bytes += target.config_bytes;
  }
  const sim::Duration build_time = build_done - started;

  // Push phase: I/O-bound over the shared southbound channel, started once
  // the build completes. Completion = last target delivered.
  auto remaining = std::make_shared<std::size_t>(targets.size());
  auto finish = [this, started, build_time, total_bytes,
                 n_targets = targets.size(),
                 done = std::move(done)]() {
    ++updates_completed_;
    if (done) {
      PushReport report;
      report.build_time = build_time;
      report.total_time = loop_.now() - started;
      report.bytes_pushed = total_bytes;
      report.targets = n_targets;
      done(report);
    }
  };
  if (targets.empty()) {
    loop_.post_at(build_done, finish);
    return;
  }
  loop_.post_at(build_done, [this, targets = std::move(targets), remaining,
                             finish = std::move(finish),
                             on_delivered =
                                 std::move(on_delivered)]() mutable {
    auto shared_targets =
        std::make_shared<std::vector<ConfigTarget>>(std::move(targets));
    for (std::size_t i = 0; i < shared_targets->size(); ++i) {
      southbound_.transfer(
          (*shared_targets)[i].config_bytes,
          [i, shared_targets, on_delivered, remaining, finish] {
            if (on_delivered) on_delivered(i, (*shared_targets)[i]);
            if (--*remaining == 0) finish();
          });
    }
  });
}

}  // namespace canal::k8s
