#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <map>
#include <utility>

#include "sim/alloc_hook.h"

namespace simbench {

std::int64_t wall_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

double process_cpu_s() {
  return static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID)) / 1e9;
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

// ---------------------------------------------------------------------------
// SpanRecorder

std::int64_t SpanRecorder::open(std::string name) {
  const std::int64_t now = wall_ns();
  const std::int64_t index = add(std::move(name), now, now, thread_index());
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = wall_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int64_t SpanRecorder::add(std::string name, std::int64_t start_ns,
                               std::int64_t end_ns, std::uint32_t thread,
                               std::int64_t cpu_ns) {
  return add_child(open_.empty() ? -1 : open_.back(), std::move(name),
                   start_ns, end_ns, thread, cpu_ns);
}

std::int64_t SpanRecorder::add_child(std::int64_t parent, std::string name,
                                     std::int64_t start_ns,
                                     std::int64_t end_ns, std::uint32_t thread,
                                     std::int64_t cpu_ns) {
  spans_.push_back(
      Span{std::move(name), start_ns, end_ns, parent, run_, thread, cpu_ns});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<SpanRecorder::NameTotals> SpanRecorder::totals() const {
  // Children may overlap (parallel shard tasks), so a span's covered time
  // is the union of its children's intervals, clipped to its own.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, NameTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, cursor);
      const std::int64_t to = std::min(hi, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    const std::int64_t duration = span.end_ns - span.start_ns;
    NameTotals& t = by_name[span.name];
    t.name = span.name;
    ++t.count;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  std::vector<NameTotals> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool SpanRecorder::write_json(const std::string& path,
                              const std::string& header) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{%s, \"spans\": [\n", header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"parent\": %" PRId64
                 ", \"run\": %u, \"thread\": %u, \"cpu_ns\": %" PRId64 "}%s\n",
                 i, s.name.c_str(), s.start_ns, s.end_ns, s.parent, s.run,
                 s.thread, s.cpu_ns, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// SegmentClock

void SegmentClock::start() {
  wall_start_ = wall_ns();
  cpu_start_ = process_cpu_s();
}

void SegmentClock::cut() {
  const std::int64_t wall = wall_ns();
  const double cpu = process_cpu_s();
  double lane_wall_max = 0.0;
  double lane_cpu_sum = 0.0;
  for (const double s : open_.lane_wall_s) {
    lane_wall_max = std::max(lane_wall_max, s);
  }
  for (const double s : open_.lane_cpu_s) lane_cpu_sum += s;
  open_.wall_s = std::max(
      0.0, static_cast<double>(wall - wall_start_) / 1e9 - lane_wall_max);
  open_.cpu_s = std::max(0.0, cpu - cpu_start_ - lane_cpu_sum);
  segments_.push_back(std::move(open_));
  open_ = Segment{};
  wall_start_ = wall;
  cpu_start_ = cpu;
}

void SegmentClock::set_lanes(std::vector<double> wall_s,
                             std::vector<double> cpu_s) {
  open_.lane_wall_s = std::move(wall_s);
  open_.lane_cpu_s = std::move(cpu_s);
}

// ---------------------------------------------------------------------------
// SegmentedShardRunner

void SegmentedShardRunner::run_round(
    std::vector<std::function<void()>>& tasks) {
  // ShardedSim reuses one task list for every round; wrap it once.
  if (bound_ != &tasks || wrapped_.size() != tasks.size()) {
    bound_ = &tasks;
    wall_s_.assign(tasks.size(), 0.0);
    cpu_s_.assign(tasks.size(), 0.0);
    wrapped_.clear();
    wrapped_.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      std::function<void()>* task = &tasks[i];
      double* wall_s = &wall_s_[i];
      double* cpu_s = &cpu_s_[i];
      wrapped_.emplace_back([task, wall_s, cpu_s] {
        const std::int64_t wall_start = wall_ns();
        const std::int64_t cpu_start = thread_cpu_ns();
        (*task)();
        *cpu_s = static_cast<double>(thread_cpu_ns() - cpu_start) / 1e9;
        *wall_s = static_cast<double>(wall_ns() - wall_start) / 1e9;
      });
    }
  }
  clock_.cut();
  inner_.run_round(wrapped_);
  clock_.set_lanes(wall_s_, cpu_s_);
}

// ---------------------------------------------------------------------------
// TimedShardRunner

void TimedShardRunner::run_round(std::vector<std::function<void()>>& tasks) {
  // ShardedSim builds its task list once per run and reuses it every
  // round; wrap it once per list.
  if (bound_ != &tasks || wrapped_.size() != tasks.size()) {
    bound_ = &tasks;
    slots_.assign(tasks.size(), Slot{});
    wrapped_.clear();
    wrapped_.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      std::function<void()>* task = &tasks[i];
      Slot* slot = &slots_[i];
      wrapped_.emplace_back([task, slot] {
        const std::uint64_t allocs_before = canal::sim::alloc_count();
        slot->thread = thread_index();
        slot->wall_start = wall_ns();
        const std::int64_t cpu_start = thread_cpu_ns();
        (*task)();
        slot->cpu_ns = thread_cpu_ns() - cpu_start;
        slot->wall_end = wall_ns();
        slot->allocs = canal::sim::alloc_count() - allocs_before;
      });
    }
  }

  const std::int64_t round_start = wall_ns();
  inner_.run_round(wrapped_);
  const std::int64_t round_end = wall_ns();

  std::int64_t max_cpu = 0;
  std::int64_t max_wall = 0;
  for (const Slot& slot : slots_) {
    max_cpu = std::max(max_cpu, slot.cpu_ns);
    max_wall = std::max(max_wall, slot.wall_end - slot.wall_start);
    totals_.task_allocs += slot.allocs;
  }
  const std::int64_t round_wall = round_end - round_start;
  ++totals_.rounds;
  totals_.critical_path_ms += static_cast<double>(max_cpu) / 1e6;
  totals_.barrier_wait_ms +=
      static_cast<double>(std::max<std::int64_t>(0, round_wall - max_wall)) /
      1e6;
  totals_.round_us.push_back(static_cast<double>(round_wall) / 1e3);

  if (spans_ != nullptr) {
    const std::int64_t round =
        spans_->add("sim.shard_round", round_start, round_end, thread_index());
    for (const Slot& slot : slots_) {
      spans_->add_child(round, "sim.shard_task", slot.wall_start,
                        slot.wall_end, slot.thread, slot.cpu_ns);
    }
  }
}

}  // namespace simbench
