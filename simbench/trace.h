// Benchmark-side tracing: clocks, an in-memory span recorder, and a
// ShardRunner wrapper that times each shard task.
//
// Spans wrap the benchmark's own calls into the library (set-up by layer,
// each plane's drain, each sharded round and the shard tasks inside it, the
// unit-cost replays); nothing inside src/ is instrumented. Spans stay in
// memory and are written out once, when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/shard.h"

namespace simbench {

/// Monotonic wall clock, ns since an arbitrary process-wide epoch.
[[nodiscard]] std::int64_t wall_ns();
/// CPU time of the whole process (every thread), seconds.
[[nodiscard]] double process_cpu_s();
/// CPU time of the calling thread, ns.
[[nodiscard]] std::int64_t thread_cpu_ns();
/// Small dense id of the calling thread (0 = first thread that asked).
[[nodiscard]] std::uint32_t thread_index();

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 = root
    std::uint32_t run = 0;     ///< repetition the span belongs to
    std::uint32_t thread = 0;
    /// Thread CPU time when the span measured it (shard tasks), else -1.
    std::int64_t cpu_ns = -1;
  };

  void set_run(std::uint32_t run) noexcept { run_ = run; }

  /// Opens a span on the calling (coordinator) thread, child of the
  /// innermost open span. Returns its index.
  std::int64_t open(std::string name);
  void close(std::int64_t index);
  /// Adds an already-measured span under the innermost open span.
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::uint32_t thread,
                   std::int64_t cpu_ns = -1);
  /// Adds an already-measured span under `parent`.
  std::int64_t add_child(std::int64_t parent, std::string name,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::uint32_t thread, std::int64_t cpu_ns = -1);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  struct NameTotals {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< duration minus time covered by children
  };
  /// Per-name totals over every recorded span, by descending self time.
  [[nodiscard]] std::vector<NameTotals> totals() const;

  /// Writes every span as JSON (one object per span) plus `header` fields.
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  std::uint32_t run_ = 0;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(SpanRecorder* recorder, std::string name)
      : recorder_(recorder),
        index_(recorder ? recorder->open(std::move(name)) : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

/// One timed piece of a drain. A segment may hold a parallel part: one
/// lane per shard task, each timed on the thread that ran it. The serial
/// part is the rest: the segment's wall time minus its slowest lane, and
/// its process CPU time minus every lane's.
struct Segment {
  double wall_s = 0.0;  ///< serial part
  double cpu_s = 0.0;   ///< serial part
  std::vector<double> lane_wall_s;
  std::vector<double> lane_cpu_s;
};

/// Cuts a drain into segments and records each one's wall and CPU time.
/// The cuts sit at fixed simulated points (or at shard rounds), so segment
/// k does the same work in every repetition of a run and the run can take
/// each segment's, and each lane's, fastest repetition.
class SegmentClock {
 public:
  /// Starts a segment; segments recorded before are kept.
  void start();
  /// Ends the current segment and starts the next.
  void cut();
  /// Records the current segment's parallel part.
  void set_lanes(std::vector<double> wall_s, std::vector<double> cpu_s);

  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }

 private:
  std::int64_t wall_start_ = 0;
  double cpu_start_ = 0.0;
  Segment open_;
  std::vector<Segment> segments_;
};

/// Runs every round through another ShardRunner, one SegmentClock segment
/// per round, with each shard task as a lane timed by its wall interval
/// and its thread CPU time. Each task runs exactly once per round, inside
/// the inner runner, in the inner runner's order.
class SegmentedShardRunner final : public canal::sim::ShardRunner {
 public:
  SegmentedShardRunner(canal::sim::ShardRunner& inner, SegmentClock& clock)
      : inner_(inner), clock_(clock) {}

  void run_round(std::vector<std::function<void()>>& tasks) override;

 private:
  canal::sim::ShardRunner& inner_;
  SegmentClock& clock_;
  const std::vector<std::function<void()>>* bound_ = nullptr;
  std::vector<std::function<void()>> wrapped_;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
};

/// Wraps another ShardRunner and times every round and every shard task:
/// round wall time on the coordinator, and per task its wall interval,
/// its thread CPU time and its heap allocations on whichever worker ran it.
/// Results are untouched: each task runs exactly once per round, inside the
/// inner runner, in the inner runner's order.
class TimedShardRunner final : public canal::sim::ShardRunner {
 public:
  /// `spans` may be null (totals only).
  TimedShardRunner(canal::sim::ShardRunner& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  void run_round(std::vector<std::function<void()>>& tasks) override;

  struct Totals {
    std::uint64_t rounds = 0;
    /// Σ over rounds of the slowest task's thread CPU time.
    double critical_path_ms = 0.0;
    /// Σ over rounds of (round wall − slowest task's wall time): dispatch,
    /// barrier and wake-up cost outside any task.
    double barrier_wait_ms = 0.0;
    std::vector<double> round_us;  ///< wall time of every round
    std::uint64_t task_allocs = 0;  ///< heap allocations inside tasks
  };
  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }

 private:
  struct Slot {
    std::int64_t wall_start = 0;
    std::int64_t wall_end = 0;
    std::int64_t cpu_ns = 0;
    std::uint64_t allocs = 0;
    std::uint32_t thread = 0;
  };

  canal::sim::ShardRunner& inner_;
  SpanRecorder* spans_;
  const std::vector<std::function<void()>>* bound_ = nullptr;
  std::vector<std::function<void()>> wrapped_;
  std::vector<Slot> slots_;
  Totals totals_;
};

}  // namespace simbench
