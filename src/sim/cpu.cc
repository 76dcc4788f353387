#include "sim/cpu.h"

#include <algorithm>
#include <stdexcept>

namespace canal::sim {

TimePoint CpuCore::execute(Duration cost, Callback&& done,
                           Duration* queue_wait) {
  if (cost < 0) cost = 0;
  const TimePoint start = std::max(free_at_, loop_.now());
  if (queue_wait != nullptr) *queue_wait = start - loop_.now();
  const TimePoint end = start + cost;
  free_at_ = end;
  total_busy_ += cost;
  ++jobs_;
  if (cost > 0 && history_ != kNoHistory) {
    if (!intervals_.empty() && intervals_.back().end == start) {
      intervals_.back().end = end;  // coalesce back-to-back work
      intervals_.back().cum += cost;
    } else {
      const Duration before =
          intervals_.empty() ? dropped_cum_ : intervals_.back().cum;
      intervals_.push_back({end, before + cost});
    }
    prune(loop_.now() - history_);
  }
  if (done) loop_.post_at(end, std::move(done));
  return end;
}

void CpuCore::prune(TimePoint horizon) {
  while (!intervals_.empty() && intervals_.front().end < horizon) {
    pop_interval();
  }
  // Time-based pruning alone cannot bound memory when every retained
  // interval is younger than `history`; enforce the hard cap by dropping
  // the oldest entries.
  while (intervals_.size() > kMaxIntervals) pop_interval();
}

inline void CpuCore::require_history() const {
  if (history_ == kNoHistory) {
    throw std::logic_error(
        "CpuCore utilization query on a core built with kNoHistory");
  }
}

inline Duration CpuCore::busy_through(TimePoint t) const {
  // Intervals are appended in nondecreasing (start, end) order and are
  // disjoint, so the ones ending after `t` form a suffix. Read the busy
  // time before its first interval out of the prefix sums and add that
  // interval's part before `t` (its start is implied by its end and its
  // share of the prefix sum). Integer arithmetic, so windows read exactly.
  // An idle core, and a window reaching back past the oldest retained
  // interval (as every window of a run younger than the window does), need
  // no search. Otherwise gallop back from the newest interval to bracket
  // the first one ending after `t`, then bisect the bracket: a read costs
  // O(log k) in the k intervals ending after `t` (a window's own
  // population), however long the history behind it.
  const std::size_t n = intervals_.size();
  if (n == 0) return dropped_cum_;
  if (intervals_[n - 1].end <= t) return intervals_[n - 1].cum;
  std::size_t lo = 0;      // every interval before lo ends at or before t
  std::size_t hi = n - 1;  // intervals_[hi] ends after t
  if (intervals_[0].end > t) {
    hi = 0;
  } else {
    lo = 1;
    for (std::size_t step = 1; step <= hi - lo; step *= 2) {
      if (intervals_[hi - step].end <= t) {
        lo = hi - step + 1;
        break;
      }
      hi -= step;
    }
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (intervals_[mid].end <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const Duration before = hi == 0 ? dropped_cum_ : intervals_[hi - 1].cum;
  const Interval& at = intervals_[hi];
  const TimePoint start = at.end - (at.cum - before);
  return start < t ? before + (t - start) : before;
}

void CpuCore::pop_interval() {
  // Checkpoint each boundary the front interval ends after while it is
  // still here (busy_through() then needs no search).
  if (!checkpoints_) checkpoints_ = std::make_unique<Checkpoints>();
  Checkpoints& cp = *checkpoints_;
  for (auto k = cp.first + static_cast<std::int64_t>(cp.busy.size());
       k * kCheckpointWidth < intervals_.front().end; ++k) {
    cp.busy.push_back(busy_through(k * kCheckpointWidth));
    if (cp.busy.size() > kMaxCheckpoints) {
      cp.busy.pop_front();
      ++cp.first;
    }
  }
  dropped_cum_ = intervals_.front().cum;
  intervals_.pop_front();
}

double CpuCore::utilization_between(TimePoint lo, TimePoint hi) const {
  require_history();
  if (hi <= lo) return 0.0;
  return static_cast<double>(busy_through(hi) - busy_through(lo)) /
         static_cast<double>(hi - lo);
}

Duration CpuCore::busy_at_checkpoint(std::int64_t k) const {
  // Not written yet: the intervals still cover the boundary.
  if (!checkpoints_) return busy_through(k * kCheckpointWidth);
  const Checkpoints& cp = *checkpoints_;
  const std::int64_t i = k - cp.first;
  if (i >= static_cast<std::int64_t>(cp.busy.size())) {
    return busy_through(k * kCheckpointWidth);
  }
  // Older than the kept checkpoints reads as idle.
  return cp.busy[static_cast<std::size_t>(std::max<std::int64_t>(i, 0))];
}

double CpuCore::coarse_utilization(TimePoint lo, TimePoint hi) const {
  require_history();
  const TimePoint now = loop_.now();
  const std::int64_t k_lo = std::max<TimePoint>(lo, 0) / kCheckpointWidth;
  TimePoint t_hi = now;
  Duration busy_hi = busy_through(now);
  if (hi < now) {
    const std::int64_t k_hi = std::max<TimePoint>(hi, 0) / kCheckpointWidth;
    t_hi = k_hi * kCheckpointWidth;
    busy_hi = busy_at_checkpoint(k_hi);
  }
  const TimePoint t_lo = k_lo * kCheckpointWidth;
  if (t_hi <= t_lo) return 0.0;
  return static_cast<double>(busy_hi - busy_at_checkpoint(k_lo)) /
         static_cast<double>(t_hi - t_lo);
}

CpuSet::CpuSet(EventLoop& loop, std::size_t cores, Duration history) {
  cores_.reserve(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    cores_.push_back(std::make_unique<CpuCore>(loop, history));
  }
}

std::size_t CpuSet::least_loaded() const {
  std::size_t best = 0;
  TimePoint best_free = std::numeric_limits<TimePoint>::max();
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i]->free_at() < best_free) {
      best_free = cores_[i]->free_at();
      best = i;
    }
  }
  return best;
}

TimePoint CpuSet::execute(Duration cost, Callback&& done,
                          Duration* queue_wait) {
  return cores_[least_loaded()]->execute(cost, std::move(done), queue_wait);
}

TimePoint CpuSet::execute_pinned(std::uint64_t hash, Duration cost,
                                 Callback&& done,
                                 Duration* queue_wait) {
  return cores_[hash % cores_.size()]->execute(cost, std::move(done),
                                               queue_wait);
}

namespace {

template <typename F>
double mean_over(const std::vector<std::unique_ptr<CpuCore>>& cores, F f) {
  if (cores.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& c : cores) sum += f(*c);
  return sum / static_cast<double>(cores.size());
}

}  // namespace

double CpuSet::utilization(Duration window) const {
  return mean_over(cores_, [&](const CpuCore& c) {
    return c.utilization(window);
  });
}

double CpuSet::utilization_between(TimePoint lo, TimePoint hi) const {
  return mean_over(cores_, [&](const CpuCore& c) {
    return c.utilization_between(lo, hi);
  });
}

double CpuSet::coarse_utilization(TimePoint lo, TimePoint hi) const {
  return mean_over(cores_, [&](const CpuCore& c) {
    return c.coarse_utilization(lo, hi);
  });
}

double CpuSet::max_core_utilization(Duration window) const {
  double best = 0.0;
  for (const auto& c : cores_) best = std::max(best, c->utilization(window));
  return best;
}

double CpuSet::total_busy_core_seconds() const {
  double sum = 0.0;
  for (const auto& c : cores_) sum += to_seconds(c->total_busy());
  return sum;
}

}  // namespace canal::sim
