#include "sim/cpu.h"

#include <algorithm>
#include <stdexcept>

namespace canal::sim {

TimePoint CpuCore::execute(Duration cost, Callback done,
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
    dropped_cum_ = intervals_.front().cum;
    intervals_.pop_front();
  }
  // Time-based pruning alone cannot bound memory when every retained
  // interval is younger than `history`; enforce the hard cap by dropping
  // the oldest entries.
  while (intervals_.size() > kMaxIntervals) {
    dropped_cum_ = intervals_.front().cum;
    intervals_.pop_front();
  }
}

double CpuCore::utilization(Duration window) const {
  if (history_ == kNoHistory) {
    throw std::logic_error(
        "CpuCore::utilization on a core built with kNoHistory");
  }
  if (window <= 0) return 0.0;
  const TimePoint hi = loop_.now();
  const TimePoint lo = hi - window;
  // Intervals are appended in nondecreasing (start, end) order and are
  // disjoint, so the window's overlap set is the contiguous index range
  // [first, n): binary-search its start, then read the busy total out of
  // the prefix sums and clip the two boundary intervals — only the first
  // can start before `lo` and only the last can end after `hi`. The first
  // one's start is implied by its end and its share of the prefix sum.
  // The range always runs to the end: an interval opens at the `now` of
  // the execute() that starts it (work queued behind a busy core coalesces
  // into the back interval), so none starts after `hi`, and one starting
  // exactly at `hi` is clipped to nothing. Pure integer arithmetic, so the
  // result is bit-identical to the old linear accumulation. A window
  // reaching past the oldest retained interval — the common case for long
  // scoring windows — needs no search at all.
  const std::size_t n = intervals_.size();
  std::size_t first = 0;
  if (n > 0 && intervals_.front().end <= lo) {
    for (std::size_t step = n; step > 0; step /= 2) {  // first with end > lo
      while (first + step <= n && intervals_[first + step - 1].end <= lo) {
        first += step;
      }
    }
  }
  if (first >= n) return 0.0;
  const Duration before = first == 0 ? dropped_cum_ : intervals_[first - 1].cum;
  Duration busy = intervals_.back().cum - before;
  const TimePoint first_start =
      intervals_[first].end - (intervals_[first].cum - before);
  if (first_start < lo) busy -= lo - first_start;
  if (intervals_.back().end > hi) busy -= intervals_.back().end - hi;
  return static_cast<double>(busy) / static_cast<double>(window);
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

TimePoint CpuSet::execute(Duration cost, Callback done,
                          Duration* queue_wait) {
  return cores_[least_loaded()]->execute(cost, std::move(done), queue_wait);
}

TimePoint CpuSet::execute_pinned(std::uint64_t hash, Duration cost,
                                 Callback done,
                                 Duration* queue_wait) {
  return cores_[hash % cores_.size()]->execute(cost, std::move(done),
                                               queue_wait);
}

double CpuSet::utilization(Duration window) const {
  if (cores_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& c : cores_) sum += c->utilization(window);
  return sum / static_cast<double>(cores_.size());
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
