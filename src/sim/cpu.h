// CPU cores as FCFS queueing servers.
//
// A core accepts work items with a service cost; completion time is
// max(now, core-free-time) + cost, so queueing delay and saturation emerge
// naturally. Busy intervals are retained (bounded) so callers can ask for
// utilization over any recent window — the signal Canal's anomaly
// detection and precise scaling operate on — and older busy time survives
// as 5-minute checkpoints. Only cores whose utilization something reads
// keep that history: gateway replicas (scaling, pattern monitor,
// MeshGateway::resolve) and k8s nodes (intervention). Every other owner
// builds its cores with CpuCore::kNoHistory.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "sim/ring_deque.h"
#include "sim/time.h"

namespace canal::sim {

/// A single simulated CPU core with an unbounded FCFS run queue.
class CpuCore {
 public:
  /// `history` bounds how far back utilization queries may reach.
  /// kNoHistory keeps none: timing, queue waits, total_busy() and jobs()
  /// are unchanged, but utilization() throws.
  explicit CpuCore(EventLoop& loop, Duration history = kDefaultHistory)
      : loop_(loop), history_(history) {}

  static constexpr Duration kDefaultHistory = 5 * kMinute;

  /// `history` value for a core whose utilization nothing reads: execute()
  /// skips the interval bookkeeping. The on-node proxies, the key server,
  /// the controller, ambient's ztunnels and waypoints, istio's node pools
  /// and the fuzz executor's rotation CPU use it (DESIGN.md §14).
  static constexpr Duration kNoHistory = 0;

  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  /// Enqueues a job costing `cost`; runs `done` (if any) at completion.
  /// Returns the completion time. When `queue_wait` is non-null it receives
  /// the FCFS wait this job spends queued behind earlier work (completion ==
  /// now + *queue_wait + cost) — the split request tracing uses to separate
  /// waiting from working.
  TimePoint execute(Duration cost, Callback&& done = nullptr,
                    Duration* queue_wait = nullptr);

  /// Completion time `execute(cost)` would return, without enqueueing.
  [[nodiscard]] TimePoint completion_if(Duration cost) const noexcept {
    const TimePoint start = free_at_ > loop_.now() ? free_at_ : loop_.now();
    return start + cost;
  }

  /// Time at which the core next becomes idle.
  [[nodiscard]] TimePoint free_at() const noexcept { return free_at_; }

  /// Outstanding queued work (0 when idle).
  [[nodiscard]] Duration backlog() const noexcept {
    return free_at_ > loop_.now() ? free_at_ - loop_.now() : 0;
  }

  /// Fraction of [now - window, now] the core was (or is committed to be)
  /// busy. Throws std::logic_error on a kNoHistory core, which has no
  /// answer.
  [[nodiscard]] double utilization(Duration window) const {
    return utilization_between(loop_.now() - window, loop_.now());
  }

  /// Fraction of [lo, hi], hi <= now, the core was busy. Intervals inside
  /// a past window never change, so while the history covers it this is
  /// what utilization() read when `hi` was now. Throws like utilization().
  [[nodiscard]] double utilization_between(TimePoint lo, TimePoint hi) const;

  static constexpr Duration kCheckpointWidth = kDefaultHistory;

  /// Utilization over [lo, hi] with both ends snapped down to
  /// kCheckpointWidth boundaries (an `hi` at or past now reads now), from
  /// the busy-time checkpoints: reaches back a day, not just the history.
  [[nodiscard]] double coarse_utilization(TimePoint lo, TimePoint hi) const;

  /// Total busy time ever committed to this core.
  [[nodiscard]] Duration total_busy() const noexcept { return total_busy_; }

  /// Jobs accepted so far.
  [[nodiscard]] std::uint64_t jobs() const noexcept { return jobs_; }

  /// Busy intervals currently retained for utilization queries. Bounded by
  /// both the `history` window and kMaxIntervals; always 0 on a kNoHistory
  /// core.
  [[nodiscard]] std::size_t interval_count() const noexcept {
    return intervals_.size();
  }

  /// Hard cap on retained busy intervals. Time-based pruning alone cannot
  /// bound memory on an idle-free run whose jobs never coalesce (each job
  /// separated by a gap): every interval stays inside `history`. Beyond the
  /// cap the oldest intervals are dropped, shrinking the effective lookback
  /// window but never distorting utilization over windows the retained
  /// intervals still cover.
  static constexpr std::size_t kMaxIntervals = 1 << 16;

 private:
  // One busy interval. Its start is implied: every interval is wholly busy
  // (only back-to-back work coalesces), so its length is its share of the
  // prefix sum and start_i = end_i - (cum_i - cum_{i-1}), with dropped_cum_
  // standing in for cum_{-1}.
  struct Interval {
    TimePoint end;
    Duration cum;  // busy time of every interval ever recorded, through this
  };
  static_assert(sizeof(Interval) == 16);
  void prune(TimePoint horizon);
  void pop_interval();
  void require_history() const;
  /// Busy time in [0, t] as the retained intervals see it (pruned busy
  /// time after t is counted before it).
  [[nodiscard]] Duration busy_through(TimePoint t) const;
  /// Busy time in [0, k * kCheckpointWidth]; the boundary must be <= now.
  [[nodiscard]] Duration busy_at_checkpoint(std::int64_t k) const;

  static constexpr std::size_t kMaxCheckpoints = 25 * kHour / kCheckpointWidth;

  EventLoop& loop_;
  Duration history_;
  TimePoint free_at_ = 0;
  Duration total_busy_ = 0;
  std::uint64_t jobs_ = 0;
  // Busy intervals, each carrying the prefix sum of busy time through it
  // (including pruned intervals, via dropped_cum_). A utilization query then
  // reduces to two searches from the newest interval (busy_through) plus
  // integer subtraction, each O(log k) in the intervals inside the window
  // rather than in the whole history, which long runs fill. One
  // 16-byte record per interval: a push writes one slot of one buffer.
  // RingDeque keeps the steady-state slide (push_back/pop_front)
  // allocation-free.
  RingDeque<Interval> intervals_;
  Duration dropped_cum_ = 0;  // cum of the last pruned interval
  // busy[i]: busy time by boundary (first + i) * kCheckpointWidth.
  // pop_interval() writes each boundary before the intervals stop covering
  // it, and allocates this at the first prune: a run shorter than the
  // history pays one null pointer per core.
  struct Checkpoints {
    RingDeque<Duration> busy;
    std::int64_t first = 0;
  };
  std::unique_ptr<Checkpoints> checkpoints_;
};

/// A group of cores (a VM or a node). Dispatch is least-loaded by default,
/// or pinned by hash for flow/core affinity.
class CpuSet {
 public:
  /// Every core gets `history` (CpuCore::kNoHistory for none).
  CpuSet(EventLoop& loop, std::size_t cores,
         Duration history = CpuCore::kDefaultHistory);

  [[nodiscard]] std::size_t size() const noexcept { return cores_.size(); }

  CpuCore& core(std::size_t i) { return *cores_.at(i); }
  [[nodiscard]] const CpuCore& core(std::size_t i) const { return *cores_.at(i); }

  /// Runs on the least-loaded core. Returns completion time. `queue_wait`,
  /// when non-null, receives the job's FCFS queueing delay.
  TimePoint execute(Duration cost, Callback&& done = nullptr,
                    Duration* queue_wait = nullptr);

  /// Runs on core `hash % size()` (flow pinning). Returns completion time.
  TimePoint execute_pinned(std::uint64_t hash, Duration cost,
                           Callback&& done = nullptr,
                           Duration* queue_wait = nullptr);

  /// Index of the core that would next become free.
  [[nodiscard]] std::size_t least_loaded() const;

  /// Means across cores of the CpuCore queries of the same name. Like
  /// them, they throw std::logic_error on kNoHistory cores.
  [[nodiscard]] double utilization(Duration window) const;
  [[nodiscard]] double utilization_between(TimePoint lo, TimePoint hi) const;
  [[nodiscard]] double coarse_utilization(TimePoint lo, TimePoint hi) const;

  /// Peak single-core utilization over the trailing window. Throws
  /// std::logic_error on kNoHistory cores.
  [[nodiscard]] double max_core_utilization(Duration window) const;

  /// Sum of busy time across cores, expressed in core-seconds.
  [[nodiscard]] double total_busy_core_seconds() const;

 private:
  std::vector<std::unique_ptr<CpuCore>> cores_;
};

}  // namespace canal::sim
