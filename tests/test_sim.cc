// Unit tests for the simulation core: event loop, RNG, CPU model, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace canal::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), kSecond);
  EXPECT_EQ(minutes(2), 120 * kSecond);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(12.5)), 12.5);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
}

TEST(Time, FormatPicksUnit) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(42)), "42.00us");
  EXPECT_EQ(format_duration(milliseconds(1.25)), "1.25ms");
  EXPECT_EQ(format_duration(seconds(55)), "55.00s");
  EXPECT_EQ(format_duration(minutes(17)), "17.0min");
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.post(microseconds(30), [&] { order.push_back(3); });
  loop.post(microseconds(10), [&] { order.push_back(1); });
  loop.post(microseconds(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), microseconds(30));
}

TEST(EventLoop, TieBrokenByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  // schedule and post draw sequence numbers from the same counter, so
  // interleaving them keeps insertion order.
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      handles.push_back(
          loop.schedule(microseconds(5), [&order, i] { order.push_back(i); }));
    } else {
      loop.post(microseconds(5), [&order, i] { order.push_back(i); });
    }
  }
  loop.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.post(microseconds(10), [&] { ++fired; });
  loop.post(microseconds(30), [&] { ++fired; });
  loop.run_until(microseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), microseconds(20));
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  int fired = 0;
  auto handle = loop.schedule(microseconds(10), [&] { ++fired; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventHandle, NotPendingAfterFireOrCancel) {
  EventLoop loop;
  EventHandle fired = loop.schedule(microseconds(10), [] {});
  EventHandle cancelled = loop.schedule(microseconds(10), [] {});
  EXPECT_TRUE(fired.pending());
  EXPECT_TRUE(cancelled.pending());
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  EXPECT_TRUE(fired.pending());
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(cancelled.pending());
  EXPECT_FALSE(EventHandle{}.pending());
}

TEST(EventHandle, CancelAfterFireIsNoOp) {
  EventLoop loop;
  int fired = 0;
  EventHandle handle = loop.schedule(microseconds(10), [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  handle.cancel();
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  // The loop still schedules and runs normally afterwards.
  loop.post(microseconds(10), [&] { ++fired; });
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(EventHandle, StaleHandleCannotTouchReusedSlot) {
  // With one event in flight at a time the slab has a single slot, so each
  // new event reuses the slot the stale handle names.
  EventLoop loop;
  int first = 0;
  int second = 0;
  int third = 0;
  EventHandle stale = loop.schedule(microseconds(10), [&] { ++first; });
  loop.run();
  EventHandle fresh = loop.schedule(microseconds(10), [&] { ++second; });
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  loop.run();
  EXPECT_EQ(second, 1);

  // A cancelled handle is just as stale once its key has popped.
  fresh = loop.schedule(microseconds(10), [&] { ++second; });
  fresh.cancel();
  loop.run();
  EventHandle reuse = loop.schedule(microseconds(10), [&] { ++third; });
  fresh.cancel();
  stale.cancel();
  EXPECT_FALSE(fresh.pending());
  EXPECT_TRUE(reuse.pending());
  loop.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(third, 1);
}

TEST(EventHandle, SelfCancelInsideCallbackRunsOnce) {
  EventLoop loop;
  int runs = 0;
  EventHandle handle;
  handle = loop.schedule(microseconds(10), [&] {
    ++runs;
    EXPECT_FALSE(handle.pending());
    handle.cancel();
  });
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(runs, 1);
  // Same-tick events take the bucket path rather than the heap.
  handle = loop.schedule(0, [&] {
    ++runs;
    handle.cancel();
  });
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(runs, 2);
}

TEST(EventHandle, CancelFromSameTickSibling) {
  EventLoop loop;
  std::vector<int> order;
  EventHandle second;
  loop.post(0, [&] {
    order.push_back(1);
    second.cancel();
  });
  second = loop.schedule(0, [&] { order.push_back(2); });
  loop.post(0, [&] { order.push_back(3); });
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  TimePoint inner_fired = -1;
  loop.post(microseconds(10), [&] {
    loop.post(microseconds(5), [&] { inner_fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(inner_fired, microseconds(15));
}

TEST(EventLoop, PastDeadlineClampedToNow) {
  EventLoop loop;
  loop.run_until(microseconds(100));
  TimePoint fired_at = -1;
  loop.post_at(microseconds(50), [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, microseconds(100));
}

TEST(PeriodicTimer, FiresAtPeriod) {
  EventLoop loop;
  std::vector<TimePoint> fires;
  PeriodicTimer timer(loop, milliseconds(10), [&] {
    fires.push_back(loop.now());
  });
  timer.start();
  loop.run_until(milliseconds(35));
  ASSERT_EQ(fires.size(), 4u);  // t=0,10,20,30
  EXPECT_EQ(fires[1] - fires[0], milliseconds(10));
}

TEST(PeriodicTimer, StopHalts) {
  EventLoop loop;
  int ticks = 0;
  PeriodicTimer timer(loop, milliseconds(10), [&] { ++ticks; });
  timer.start(milliseconds(10));
  loop.run_until(milliseconds(25));
  timer.stop();
  loop.run_until(milliseconds(100));
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTimer, StopThenStartResumes) {
  EventLoop loop;
  int ticks = 0;
  PeriodicTimer timer(loop, microseconds(10), [&] { ++ticks; });
  timer.start();
  loop.run_until(microseconds(25));  // ticks at 0, 10, 20
  EXPECT_EQ(ticks, 3);
  timer.stop();
  EXPECT_FALSE(timer.running());
  loop.run_until(microseconds(50));
  EXPECT_EQ(ticks, 3);
  timer.start(microseconds(5));  // ticks at 55, 65
  EXPECT_TRUE(timer.running());
  loop.run_until(microseconds(70));
  EXPECT_EQ(ticks, 5);
  EXPECT_TRUE(timer.running());
  // Restarting while armed replaces the pending tick instead of adding one.
  timer.start(microseconds(1));
  loop.run_until(microseconds(75));  // ticks at 71 only
  EXPECT_EQ(ticks, 6);
  timer.stop();
  loop.run();
  EXPECT_EQ(ticks, 6);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(17);
  for (const double mean : {3.0, 200.0}) {
    double sum = 0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / kN, mean, mean * 0.05);
  }
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng child = parent.fork();
  // Child stream must differ from the parent's continuation.
  EXPECT_NE(child.next(), parent.next());
}

TEST(CpuCore, IdleCoreRunsImmediately) {
  EventLoop loop;
  CpuCore core(loop);
  const TimePoint done = core.execute(microseconds(100));
  EXPECT_EQ(done, microseconds(100));
}

TEST(CpuCore, QueueingDelaysSecondJob) {
  EventLoop loop;
  CpuCore core(loop);
  core.execute(microseconds(100));
  const TimePoint done = core.execute(microseconds(50));
  EXPECT_EQ(done, microseconds(150));
  EXPECT_EQ(core.backlog(), microseconds(150));
}

TEST(CpuCore, CallbackFiresAtCompletion) {
  EventLoop loop;
  CpuCore core(loop);
  TimePoint fired = -1;
  core.execute(microseconds(80), [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, microseconds(80));
}

TEST(CpuCore, UtilizationOverWindow) {
  EventLoop loop;
  CpuCore core(loop);
  core.execute(milliseconds(50));  // busy [0, 50ms)
  loop.run_until(milliseconds(100));
  EXPECT_NEAR(core.utilization(milliseconds(100)), 0.5, 0.01);
  EXPECT_NEAR(core.utilization(milliseconds(50)), 0.0, 0.01);
}

TEST(CpuCore, TotalBusyAccumulates) {
  EventLoop loop;
  CpuCore core(loop);
  core.execute(microseconds(30));
  core.execute(microseconds(70));
  EXPECT_EQ(core.total_busy(), microseconds(100));
  EXPECT_EQ(core.jobs(), 2u);
}

TEST(CpuSet, LeastLoadedDispatch) {
  EventLoop loop;
  CpuSet set(loop, 2);
  set.execute(microseconds(100));  // core 0 busy
  const TimePoint done = set.execute(microseconds(10));
  EXPECT_EQ(done, microseconds(10));  // ran on idle core 1
}

TEST(CpuSet, PinnedDispatchIsStable) {
  EventLoop loop;
  CpuSet set(loop, 4);
  const std::uint64_t hash = 0xDEADBEEF;
  set.execute_pinned(hash, microseconds(100));
  const TimePoint done = set.execute_pinned(hash, microseconds(100));
  EXPECT_EQ(done, microseconds(200));  // same core: serialized
}

TEST(CpuSet, UtilizationAveragesCores) {
  EventLoop loop;
  CpuSet set(loop, 2);
  set.core(0).execute(milliseconds(100));
  loop.run_until(milliseconds(100));
  EXPECT_NEAR(set.utilization(milliseconds(100)), 0.5, 0.01);
  EXPECT_NEAR(set.max_core_utilization(milliseconds(100)), 1.0, 0.01);
}

TEST(Histogram, PercentilesExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.percentile(99), 99.01, 0.01);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, CdfMonotone) {
  Histogram h;
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(0, 100));
  const auto cdf = h.cdf(10);
  ASSERT_EQ(cdf.size(), 10u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(7.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Histogram, SortedCopyIsCachedAcrossQueriesAndInvalidatedByRecord) {
  // Pins the documented caching contract: the first order-statistic query
  // after a record() sorts once; further queries reuse the sorted copy
  // until the next record() invalidates it.
  Histogram h;
  EXPECT_FALSE(h.sorted_cached());
  for (int i = 0; i < 100; ++i) h.record(100.0 - i);
  EXPECT_FALSE(h.sorted_cached());
  (void)h.percentile(50);
  EXPECT_TRUE(h.sorted_cached());
  (void)h.min();  // still cached: no re-sort between queries
  (void)h.cdf(5);
  EXPECT_TRUE(h.sorted_cached());
  h.record(1.0);
  EXPECT_FALSE(h.sorted_cached());
  EXPECT_DOUBLE_EQ(h.min(), 1.0);  // re-sorts and sees the new sample
  EXPECT_TRUE(h.sorted_cached());
  h.clear();
  EXPECT_FALSE(h.sorted_cached());
}

TEST(TimeSeries, WindowedReductions) {
  TimeSeries series;
  for (int i = 0; i < 10; ++i) {
    series.record(seconds(i), static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(series.sum_in(seconds(0), seconds(4)), 10.0);
  EXPECT_DOUBLE_EQ(series.mean_in(seconds(0), seconds(4)), 2.0);
  EXPECT_DOUBLE_EQ(series.max_in(seconds(2), seconds(9)), 9.0);
  EXPECT_EQ(series.count_in(seconds(5), seconds(7)), 3u);
}

TEST(TimeSeries, ValueAtCarriesForward) {
  TimeSeries series;
  series.record(seconds(1), 10.0);
  series.record(seconds(5), 20.0);
  EXPECT_FALSE(series.value_at(seconds(0)).has_value());
  EXPECT_DOUBLE_EQ(series.value_at(seconds(3)).value(), 10.0);
  EXPECT_DOUBLE_EQ(series.value_at(seconds(9)).value(), 20.0);
}

TEST(TimeSeries, TrendSlope) {
  TimeSeries series;
  for (int i = 0; i <= 10; ++i) {
    series.record(seconds(i), 3.0 * i + 1.0);
  }
  EXPECT_NEAR(series.trend_in(seconds(0), seconds(10)), 3.0, 1e-9);
}

TEST(TimeSeries, MaxAgePrunes) {
  TimeSeries series(seconds(5));
  for (int i = 0; i <= 10; ++i) {
    series.record(seconds(i), 1.0);
  }
  EXPECT_LE(series.size(), 6u);
}

TEST(RateMeter, WindowedRate) {
  RateMeter meter(seconds(1));
  for (int i = 0; i < 100; ++i) {
    meter.record(milliseconds(i * 10));
  }
  EXPECT_NEAR(meter.rate(milliseconds(990)), 100.0, 5.0);
  EXPECT_NEAR(meter.rate(seconds(10)), 0.0, 0.01);
  EXPECT_EQ(meter.total(), 100u);
}

TEST(RateMeter, WeightedEvents) {
  RateMeter meter(seconds(1));
  meter.record(0, 50.0);
  EXPECT_NEAR(meter.rate(milliseconds(500)), 50.0, 0.01);
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> a{1, 2, 3, 4, 5};
  std::vector<double> b{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-9);
  std::vector<double> c{5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-9);
}

TEST(Pearson, DegenerateIsZero) {
  std::vector<double> a{1, 1, 1};
  std::vector<double> b{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
  EXPECT_DOUBLE_EQ(pearson(std::vector<double>{1}, std::vector<double>{2}),
                   0.0);
}

TEST(Hwhm, FindsPeakWindow) {
  TimeSeries series;
  // Triangle peaking at t=12h, values 0..100..0.
  for (int h = 0; h <= 24; ++h) {
    const double v = 100.0 - std::abs(h - 12) * (100.0 / 12.0);
    series.record(hours(h), v);
  }
  const auto window = hwhm_window(series);
  EXPECT_EQ(window.peak, hours(12));
  // Half max = 50 -> crossing at h=6 and h=18.
  EXPECT_EQ(window.start, hours(6));
  EXPECT_EQ(window.end, hours(18));
}

TEST(Hwhm, EmptySeries) {
  TimeSeries series;
  const auto window = hwhm_window(series);
  EXPECT_EQ(window.start, 0);
  EXPECT_EQ(window.end, 0);
}

// Property sweep: CPU utilization equals offered load below saturation.
class CpuLoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(CpuLoadSweep, UtilizationTracksOfferedLoad) {
  const double load = GetParam();
  EventLoop loop;
  CpuCore core(loop, minutes(2));
  Rng rng(31);
  // Poisson arrivals of 100us jobs at `load` erlangs for 10 s.
  const double rate_per_s = load / 100e-6;
  TimePoint t = 0;
  while (t < seconds(10)) {
    t += static_cast<Duration>(rng.exponential(1.0 / rate_per_s) *
                               static_cast<double>(kSecond));
    loop.post_at(t, [&core] { core.execute(microseconds(100)); });
  }
  loop.run();
  loop.run_until(std::max<TimePoint>(loop.now(), seconds(10)));
  const double util =
      to_seconds(core.total_busy()) / to_seconds(loop.now());
  EXPECT_NEAR(util, load, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Loads, CpuLoadSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(EventLoop, SlotReuseKeepsOrdering) {
  // The event loop recycles slab slots through a free list; after draining
  // and refilling the loop, ordering must still follow (when, insertion).
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    loop.post(microseconds(64 - i), [&order, i] { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 64u);
  EXPECT_EQ(order.front(), 63);  // smallest delay fires first
  EXPECT_EQ(order.back(), 0);
  order.clear();
  // Refill: every slot comes off the free list now.
  for (int i = 0; i < 64; ++i) {
    loop.post(microseconds(7), [&order, i] { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);  // ties by insertion
}

// ---- Differential test against a reference scheduler ----------------------

/// The reference model: every pending event in a map keyed by (when, seq),
/// the definition of the order EventLoop must reproduce. A cancelled event
/// keeps its entry until it pops, as in EventLoop.
class ModelLoop {
 public:
  using Handle = std::uint64_t;  // the event's seq; kNone for post()
  static constexpr Handle kNone = ~Handle{0};

  [[nodiscard]] TimePoint now() const { return now_; }
  Handle schedule_at(TimePoint when, std::function<void()> fn) {
    const Handle seq = next_seq_++;
    pending_.emplace(std::pair{std::max(when, now_), seq},
                     Entry{std::move(fn), false});
    return seq;
  }
  void post_at(TimePoint when, std::function<void()> fn) {
    (void)schedule_at(when, std::move(fn));
  }
  void cancel(Handle h) {
    for (auto& [key, entry] : pending_) {
      if (key.second == h) entry.cancelled = true;
    }
  }
  [[nodiscard]] bool pending(Handle h) const {
    for (const auto& [key, entry] : pending_) {
      if (key.second == h) return !entry.cancelled;
    }
    return false;
  }
  [[nodiscard]] std::size_t pending_events() const { return pending_.size(); }
  [[nodiscard]] std::optional<TimePoint> next_event_time() const {
    if (pending_.empty()) return std::nullopt;
    return pending_.begin()->first.first;
  }
  std::size_t run_until(TimePoint deadline) {
    const std::size_t count = drain(deadline);
    now_ = std::max(now_, deadline);
    return count;
  }
  std::size_t run() { return drain(std::numeric_limits<TimePoint>::max()); }

 private:
  struct Entry {
    std::function<void()> fn;
    bool cancelled;
  };
  // Runs the earliest entry while it is due by `deadline`.
  std::size_t drain(TimePoint deadline) {
    std::size_t count = 0;
    while (!pending_.empty() && pending_.begin()->first.first <= deadline) {
      auto node = pending_.extract(pending_.begin());
      now_ = node.key().first;
      if (node.mapped().cancelled) continue;
      node.mapped().fn();
      ++count;
    }
    return count;
  }
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::map<std::pair<TimePoint, std::uint64_t>, Entry> pending_;
};

/// EventLoop behind ModelLoop's interface.
class RealLoop {
 public:
  using Handle = EventHandle;
  static inline const Handle kNone{};

  [[nodiscard]] TimePoint now() const { return loop_.now(); }
  Handle schedule_at(TimePoint when, std::function<void()> fn) {
    return loop_.schedule_at(when, [fn = std::move(fn)] { fn(); });
  }
  void post_at(TimePoint when, std::function<void()> fn) {
    loop_.post_at(when, [fn = std::move(fn)] { fn(); });
  }
  static void cancel(Handle& h) { h.cancel(); }
  [[nodiscard]] static bool pending(const Handle& h) { return h.pending(); }
  [[nodiscard]] std::size_t pending_events() const {
    return loop_.pending_events();
  }
  [[nodiscard]] std::optional<TimePoint> next_event_time() const {
    return loop_.next_event_time();
  }
  std::size_t run_until(TimePoint deadline) {
    return loop_.run_until(deadline);
  }
  std::size_t run() { return loop_.run(); }

 private:
  EventLoop loop_;
};

/// Drives `loop` with a random mix seeded by `seed` and returns everything
/// observable: each firing (id, time), every pending() answer, and after
/// each top-level step the run count, now(), pending_events() and
/// next_event_time(). The mix holds post and schedule at past, current and
/// future times, cancels of random events (fired, pending or already
/// cancelled), self-cancels, same-tick sibling cancels, nested scheduling
/// from callbacks and run_until deadlines, past ones included. Future times
/// span every bucket of the radix queue: a few ns, µs, ms, hours, and
/// absolute times around 2^62 ns. Far events cancelled at once leave a
/// bucket holding only cancelled entries for next_event_time() to report.
/// Deadlines also land just past the earliest pending event, ahead of the
/// rest of its bucket, or far ahead of everything due, so later posts face
/// a clock that has moved past the last event run. The draws depend only
/// on what the loop has done so far, so two loops that agree are driven
/// identically.
template <typename Loop>
std::vector<std::array<std::int64_t, 3>> drive_random_mix(std::uint64_t seed) {
  enum : std::int64_t { kFire, kPending, kStep };
  Loop loop;
  Rng rng(seed);
  std::vector<std::array<std::int64_t, 3>> log;
  std::vector<typename Loop::Handle> handles;
  // A few multiples of a scale plus a jitter of a few ns: wide offsets
  // that still tie often.
  auto pick_span = [&] {
    constexpr std::array<Duration, 4> kScales{1, kMicrosecond, kMillisecond,
                                              kHour};
    return rng.uniform_int(1, 4) *
               kScales[static_cast<std::size_t>(rng.uniform_int(0, 3))] +
           rng.uniform_int(0, 2);
  };
  // Offsets cluster on a few ticks, so same-time ties are common.
  auto pick_time = [&] {
    const std::int64_t kind = rng.uniform_int(0, 7);
    if (kind == 0) return loop.now() - rng.uniform_int(1, 5);  // past
    if (kind <= 2) return loop.now();
    if (kind == 6) return loop.now() + pick_span();
    if (kind == 7) {  // around 2^62 ns: past (clamped) once now() is there
      return (TimePoint{1} << 62) + rng.uniform_int(-2, 2) * kHour +
             rng.uniform_int(0, 2);
    }
    return loop.now() + rng.uniform_int(1, 4) * (kind == 5 ? 50 : 1);
  };
  std::function<void(int)> act;
  // Adds event `id` firing at `when`; on firing it may cancel itself or
  // `sibling`, then act again one level deeper.
  auto add = [&](TimePoint when, bool keep_handle, int depth,
                 std::int64_t sibling) {
    const auto id = static_cast<std::int64_t>(handles.size());
    handles.push_back(Loop::kNone);
    auto body = [&, id, depth, sibling] {
      log.push_back({kFire, id, loop.now()});
      if (rng.chance(0.15)) {
        loop.cancel(handles[static_cast<std::size_t>(id)]);
        log.push_back(
            {kPending, id,
             loop.pending(handles[static_cast<std::size_t>(id)]) ? 1 : 0});
      }
      if (sibling >= 0) loop.cancel(handles[static_cast<std::size_t>(sibling)]);
      if (depth < 4) {
        for (std::int64_t n = rng.uniform_int(0, 2); n > 0; --n) act(depth + 1);
      }
    };
    if (keep_handle) {
      handles[static_cast<std::size_t>(id)] = loop.schedule_at(when, body);
    } else {
      loop.post_at(when, body);
    }
  };
  act = [&](int depth) {
    switch (rng.uniform_int(0, 6)) {
      case 0:
        add(pick_time(), false, depth, -1);
        break;
      case 1:
      case 2:
        add(pick_time(), true, depth, -1);
        break;
      case 3: {  // same-tick siblings: the first cancels the second
        const TimePoint when = pick_time();
        const auto second = static_cast<std::int64_t>(handles.size()) + 1;
        add(when, true, depth, second);
        add(when, true, depth, -1);
        break;
      }
      case 4:
        if (!handles.empty()) {
          const auto id = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(handles.size()) - 1));
          loop.cancel(handles[id]);
        }
        break;
      case 6:  // a far event cancelled at once
        add(loop.now() + rng.uniform_int(1, 4) * kHour, true, depth, -1);
        loop.cancel(handles.back());
        break;
      default:
        if (!handles.empty()) {
          const auto id = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(handles.size()) - 1));
          log.push_back({kPending, static_cast<std::int64_t>(id),
                         loop.pending(handles[id]) ? 1 : 0});
        }
        break;
    }
  };
  for (int step = 0; step < 400; ++step) {
    for (std::int64_t n = rng.uniform_int(1, 6); n > 0; --n) act(0);
    std::size_t ran = 0;
    const std::int64_t how = rng.uniform_int(0, 11);
    if (how == 0) {
      ran = loop.run();
    } else if (how == 1) {
      ran = loop.run_until(loop.now() - rng.uniform_int(0, 3));
    } else if (how == 2) {  // just past the earliest event, not its bucket
      ran = loop.run_until(loop.next_event_time().value_or(loop.now()) +
                           rng.uniform_int(0, 2));
    } else if (how == 3) {
      ran = loop.run_until(loop.now() + pick_span());
    } else {
      ran = loop.run_until(loop.now() + rng.uniform_int(0, 120));
    }
    const std::optional<TimePoint> next = loop.next_event_time();
    log.push_back({kStep, static_cast<std::int64_t>(ran), loop.now()});
    log.push_back({kStep, static_cast<std::int64_t>(loop.pending_events()),
                   next.value_or(-1)});
  }
  log.push_back({kStep, static_cast<std::int64_t>(loop.run()), loop.now()});
  return log;
}

TEST(EventLoop, MatchesReferenceModelOnRandomMix) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    const auto expected = drive_random_mix<ModelLoop>(seed);
    const auto actual = drive_random_mix<RealLoop>(seed);
    const auto [e, a] = std::mismatch(expected.begin(), expected.end(),
                                      actual.begin(), actual.end());
    ASSERT_TRUE(e == expected.end() && a == actual.end())
        << "first divergence at record " << (e - expected.begin()) << " of "
        << expected.size();
    EXPECT_GT(std::count_if(expected.begin(), expected.end(),
                            [](const auto& r) { return r[0] == 0; }),
              1000);
  }
}

TEST(EventLoop, CancelledEntriesInAHighBucketStillBoundNextEventTime) {
  EventLoop loop;
  int runs = 0;
  loop.post(1, [&runs] { ++runs; });
  EventHandle far = loop.schedule_at(kHour, [&runs] { ++runs; });
  EventHandle farther = loop.schedule_at(2 * kHour, [&runs] { ++runs; });
  EXPECT_EQ(loop.run_until(10), 1u);
  far.cancel();
  farther.cancel();
  // Only cancelled entries remain, far above the last event run; they
  // still count until they pop, like a heap's lazily deleted keys.
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_EQ(loop.next_event_time(), std::optional<TimePoint>(kHour));
  EXPECT_EQ(loop.run_until(kHour), 0u);
  EXPECT_EQ(loop.next_event_time(), std::optional<TimePoint>(2 * kHour));
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_EQ(loop.next_event_time(), std::nullopt);
  EXPECT_EQ(loop.now(), 2 * kHour);
  EXPECT_EQ(runs, 1);
}

TEST(EventLoop, CallbackGrowingTheSlabRunsInPlace) {
  // The first event schedules more than two slab chunks' worth of events
  // while it runs, so the slab grows under the running callback; the
  // callback then reads its own captures. Chunks never move, so they are
  // intact (a slab that relocated its events would leave the callback
  // reading freed memory, which AddressSanitizer reports).
  EventLoop loop;
  constexpr int kChildren = 200;
  std::vector<int> fired;
  std::string tag;
  loop.post(microseconds(1), [&loop, &fired, &tag,
                              name = std::string(64, 'n'), first = 7] {
    for (int i = 0; i < kChildren; ++i) {
      loop.post(i % 3, [&fired, i] { fired.push_back(i); });
    }
    tag = name;
    fired.push_back(-first);
  });
  EXPECT_EQ(loop.run(), static_cast<std::size_t>(kChildren) + 1);
  EXPECT_EQ(tag, std::string(64, 'n'));
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kChildren) + 1);
  EXPECT_EQ(fired.front(), -7);
  // Children fire by delay (0, 1, 2), then by insertion.
  std::vector<int> expected;
  for (int delay = 0; delay < 3; ++delay) {
    for (int i = delay; i < kChildren; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(std::vector<int>(fired.begin() + 1, fired.end()), expected);
}

TEST(EventLoop, CallbackRelocatedOnceIntoItsSlot) {
  // A continuation is moved once into its Callback, then relocated once
  // into its slab slot, on every scheduling path; it runs in place.
  struct Counted {
    int* moves;
    int* runs;
    explicit Counted(int* m, int* r) : moves(m), runs(r) {}
    Counted(Counted&& other) noexcept : moves(other.moves), runs(other.runs) {
      ++*moves;
    }
    Counted(const Counted&) = delete;
    void operator()() const { ++*runs; }
  };
  EventLoop loop;
  CpuSet cpus(loop, 2, CpuCore::kNoHistory);
  int moves = 0;
  int runs = 0;
  loop.post(1, Counted(&moves, &runs));
  EXPECT_EQ(moves, 2);
  loop.post_at(2, Counted(&moves, &runs));
  EXPECT_EQ(moves, 4);
  EventHandle handle = loop.schedule(3, Counted(&moves, &runs));
  EXPECT_EQ(moves, 6);
  (void)cpus.execute(10, Counted(&moves, &runs));
  EXPECT_EQ(moves, 8);
  (void)cpus.execute_pinned(7, 10, Counted(&moves, &runs));
  EXPECT_EQ(moves, 10);
  (void)cpus.core(0).execute(10, Counted(&moves, &runs));
  EXPECT_EQ(moves, 12);
  EXPECT_EQ(loop.run(), 6u);
  EXPECT_EQ(runs, 6);
  EXPECT_EQ(moves, 12);
  EXPECT_FALSE(handle.pending());
}

TEST(EventLoop, ThrowingCallbackStillFreesItsSlot) {
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  EventHandle handle = loop.schedule(microseconds(1), [token] {
    throw std::runtime_error("callback failed");
  });
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_FALSE(handle.pending());
  EXPECT_EQ(token.use_count(), 1);  // the callback was destroyed
  // The loop keeps working, and the freed slot is reused.
  int runs = 0;
  for (int i = 0; i < 3; ++i) loop.post(0, [&runs] { ++runs; });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(CpuCore, IntervalCountIsHardCapped) {
  // Every job is separated by an idle gap, so nothing coalesces and (with a
  // long history window) time-based pruning never fires: only the hard cap
  // bounds memory.
  EventLoop loop;
  CpuCore core(loop, /*history=*/365 * 24 * 60 * kMinute);
  const std::size_t jobs = CpuCore::kMaxIntervals + 1024;
  for (std::size_t i = 0; i < jobs; ++i) {
    loop.run_until(static_cast<TimePoint>(i) * microseconds(2));
    core.execute(microseconds(1));
  }
  EXPECT_LE(core.interval_count(), CpuCore::kMaxIntervals);
  EXPECT_EQ(core.jobs(), jobs);
}

TEST(CpuCore, UtilizationCorrectAfterCapPrune) {
  // 1us-on / 1us-off duty cycle far past the interval cap: windows covered
  // by the retained intervals must still read an exact 50% utilization —
  // dropping the oldest entries shrinks lookback but never distorts what
  // remains.
  EventLoop loop;
  CpuCore core(loop, /*history=*/365 * 24 * 60 * kMinute);
  const std::size_t jobs = CpuCore::kMaxIntervals + 4096;
  for (std::size_t i = 0; i < jobs; ++i) {
    loop.run_until(static_cast<TimePoint>(i) * microseconds(2));
    core.execute(microseconds(1));
  }
  loop.run();
  EXPECT_NEAR(core.utilization(milliseconds(10)), 0.5, 0.01);
  EXPECT_NEAR(core.utilization(milliseconds(1)), 0.5, 0.01);
}


// Reference for CpuCore::utilization: the same retention rules (coalesce
// back-to-back work, prune what ended before now - history, drop the
// oldest beyond kMaxIntervals) with a linear overlap sum per query.
struct NaiveCore {
  Duration history;
  std::deque<std::pair<TimePoint, TimePoint>> intervals;

  void record(TimePoint now, TimePoint start, TimePoint end) {
    if (end == start) return;
    if (!intervals.empty() && intervals.back().second == start) {
      intervals.back().second = end;
    } else {
      intervals.emplace_back(start, end);
    }
    while (!intervals.empty() && intervals.front().second < now - history) {
      intervals.pop_front();
    }
    while (intervals.size() > CpuCore::kMaxIntervals) intervals.pop_front();
  }

  double utilization(TimePoint now, Duration window) const {
    return utilization_between(now - window, now);
  }

  double utilization_between(TimePoint lo, TimePoint hi) const {
    if (hi <= lo) return 0.0;
    Duration busy = 0;
    for (const auto& [start, end] : intervals) {
      const TimePoint from = std::max(start, lo);
      const TimePoint to = std::min(end, hi);
      if (to > from) busy += to - from;
    }
    return static_cast<double>(busy) / static_cast<double>(hi - lo);
  }
};

// Drives a core and the reference through seeded bursts of jobs (queued
// bursts commit work past `now`) and compares every query bit for bit:
// windows from 1 ns to far beyond the retained history. Returns how many
// intervals the core retains at the end.
std::size_t check_utilization_against_naive(Duration history,
                                            std::size_t jobs,
                                            std::size_t query_every,
                                            std::uint64_t seed) {
  EventLoop loop;
  CpuCore core(loop, history);
  NaiveCore naive{history, {}};
  Rng rng(seed);
  for (std::size_t i = 0; i < jobs; ++i) {
    // Mostly let the core go idle first (a new interval); otherwise queue
    // behind the backlog (coalesced, committed past `now`).
    const TimePoint idle_from = std::max(loop.now(), core.free_at());
    loop.run_until(rng.chance(0.7)
                       ? idle_from + rng.uniform_int(1, microseconds(3))
                       : loop.now() + rng.uniform_int(0, microseconds(1)));
    const Duration cost =
        rng.chance(0.05) ? 0 : rng.uniform_int(1, microseconds(2));
    Duration wait = 0;
    const TimePoint end = core.execute(cost, nullptr, &wait);
    naive.record(loop.now(), loop.now() + wait, end);
    if (i % query_every == 0 || i + 1 == jobs) {
      for (const Duration window :
           {Duration{1}, rng.uniform_int(1, microseconds(50)),
            rng.uniform_int(1, 2 * history), history, 3 * history,
            100 * history + 7}) {
        const double expected = naive.utilization(loop.now(), window);
        if (core.utilization(window) != expected) {
          ADD_FAILURE() << "seed " << seed << " job " << i << " window "
                        << window << ": " << core.utilization(window)
                        << " != " << expected;
          return core.interval_count();
        }
      }
    }
  }
  EXPECT_EQ(core.interval_count(), naive.intervals.size());
  return core.interval_count();
}

TEST(CpuCore, UtilizationMatchesNaiveOverlapSum) {
  // Short history: time-based pruning keeps the retained set small, and
  // most windows reach past all of it.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    check_utilization_against_naive(microseconds(40), 20000, 97, seed);
  }
  // Long history: most jobs open a new interval, so three times the cap in
  // jobs drives pruning by the hard cap alone.
  const Duration year = 365 * 24 * 60 * kMinute;
  EXPECT_EQ(check_utilization_against_naive(year, 3 * CpuCore::kMaxIntervals,
                                            997, 4),
            CpuCore::kMaxIntervals);
}

TEST(CpuCore, WindowReadsMatchLinearScan) {
  // A default-history core through three phases: sparse jobs with gaps and
  // queued (coalescing) bursts for longer than the history, so time-based
  // pruning runs; a dense run of 1 us jobs 1 us apart, past the interval
  // cap; sparse jobs again, until the dense run ages out. At each query
  // point, windows ending at now, a run of windows that advances and then
  // goes back, and windows reaching before the history all read the bits
  // of a linear overlap sum over the same retained intervals.
  EventLoop loop;
  CpuCore core(loop);
  const Duration history = CpuCore::kDefaultHistory;
  NaiveCore naive{history, {}};
  Rng rng(31);
  std::size_t checked = 0;
  const auto check = [&](TimePoint lo, TimePoint hi) {
    ++checked;
    const double want = naive.utilization_between(lo, hi);
    if (hi == loop.now()) {
      ASSERT_EQ(core.utilization(hi - lo), want)
          << "window " << hi - lo << " at now " << loop.now();
    }
    ASSERT_EQ(core.utilization_between(lo, hi), want)
        << "[" << lo << ", " << hi << "], now " << loop.now() << ", "
        << core.interval_count() << " intervals";
  };
  const auto query = [&] {
    const TimePoint now = loop.now();
    for (const Duration window :
         {Duration{1}, rng.uniform_int(1, milliseconds(20)),
          rng.uniform_int(1, seconds(5)), rng.uniform_int(1, 2 * history)}) {
      check(now - window, now);
    }
    // A window sliding forward to now in random steps, then back.
    const Duration width = rng.uniform_int(1, seconds(10));
    TimePoint hi = now - rng.uniform_int(0, history);
    while (hi < now) {
      check(hi - width, hi);
      hi = std::min(now, hi + rng.uniform_int(1, seconds(30)));
    }
    for (int i = 0; i < 6; ++i) {
      hi -= rng.uniform_int(1, seconds(20));
      check(hi - width, hi);
    }
    // Reaching before the history, or before time zero.
    const TimePoint old = now - history - rng.uniform_int(0, history);
    check(old, now - rng.uniform_int(0, history));
    check(old - 3 * history, old + rng.uniform_int(0, 2 * history));
  };
  const auto job = [&](TimePoint at, Duration cost) {
    loop.run_until(at);
    Duration wait = 0;
    const TimePoint end = core.execute(cost, nullptr, &wait);
    naive.record(loop.now(), loop.now() + wait, end);
  };
  const auto sparse_until = [&](TimePoint until) {
    for (int i = 0; loop.now() < until; ++i) {
      // Mostly an idle gap first (a new interval); otherwise queue behind
      // the backlog or land right at free_at (coalesced).
      const double draw = rng.uniform();
      const TimePoint at =
          draw < 0.6   ? std::max(loop.now(), core.free_at()) +
                             rng.uniform_int(1, milliseconds(400))
          : draw < 0.8 ? std::max(loop.now(), core.free_at())
                       : loop.now() + rng.uniform_int(0, milliseconds(5));
      job(at, rng.chance(0.05) ? 0 : rng.uniform_int(1, milliseconds(60)));
      if (i % 23 == 0) query();
    }
  };
  sparse_until(2 * history + seconds(13));
  EXPECT_LT(naive.intervals.front().first, loop.now() - history + seconds(1));

  const std::size_t dense = CpuCore::kMaxIntervals + 5000;
  const TimePoint base = std::max(loop.now(), core.free_at()) + 1;
  for (std::size_t i = 0; i < dense; ++i) {
    job(base + static_cast<TimePoint>(i) * microseconds(2), microseconds(1));
    if (i % 8192 == 0) query();
  }
  EXPECT_EQ(core.interval_count(), CpuCore::kMaxIntervals);
  query();

  sparse_until(loop.now() + history + seconds(40));
  EXPECT_LT(core.interval_count(), 5000u);
  query();
  EXPECT_EQ(core.interval_count(), naive.intervals.size());
  EXPECT_GT(checked, 5000u);
}

TEST(CpuCore, PastWindowReadsWhatTheTrailingWindowReadThen) {
  // Busy intervals inside a past window never change, so a window read
  // later gives the bits utilization() gave when its end was now, as long
  // as the history still covers it.
  EventLoop loop;
  CpuCore core(loop);
  Rng rng(11);
  struct Reading {
    TimePoint at;
    Duration window;
    double value;
  };
  std::vector<Reading> readings;
  for (int i = 0; i < 4000; ++i) {
    loop.run_until(loop.now() + rng.uniform_int(0, milliseconds(300)));
    if (rng.uniform() < 0.7) core.execute(rng.uniform_int(0, milliseconds(90)));
    const Duration window = rng.uniform_int(1, seconds(20));
    readings.push_back({loop.now(), window, core.utilization(window)});
    for (int q = 0; q < 3; ++q) {
      const Reading& r = readings[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(readings.size()) - 1))];
      if (r.at - r.window < loop.now() - CpuCore::kDefaultHistory) continue;
      ASSERT_EQ(core.utilization_between(r.at - r.window, r.at), r.value)
          << "read at " << r.at << " over " << r.window << ", now "
          << loop.now();
    }
  }
  EXPECT_GT(loop.now(), 2 * CpuCore::kDefaultHistory);  // pruning ran
  EXPECT_EQ(core.utilization_between(seconds(5), seconds(5)), 0.0);
}

TEST(CpuCore, CheckpointsKeepBusyTimeOlderThanTheHistory) {
  // A core with a 1 s history reads windows on checkpoint boundaries
  // exactly as a core that kept every interval, hours later.
  EventLoop loop;
  CpuCore brief(loop, seconds(1));
  CpuCore full(loop, 24 * kHour);
  Rng rng(5);
  const Duration width = CpuCore::kCheckpointWidth;
  while (loop.now() < 3 * kHour) {
    loop.run_until(loop.now() + rng.uniform_int(0, seconds(20)));
    const Duration cost = rng.uniform_int(0, seconds(8));
    brief.execute(cost);
    full.execute(cost);
  }
  loop.run_until(loop.now() + seconds(1));
  EXPECT_LT(brief.interval_count(), 3u);
  EXPECT_GT(full.interval_count(), 500u);
  for (TimePoint lo = 0; lo < loop.now(); lo += width) {
    for (const TimePoint hi : {lo + width, lo + 7 * width, loop.now()}) {
      EXPECT_EQ(brief.coarse_utilization(lo, hi),
                full.coarse_utilization(lo, hi))
          << "[" << lo << ", " << hi << "]";
    }
    // Ends snap down to boundaries.
    if (lo + width < loop.now()) {
      EXPECT_EQ(brief.coarse_utilization(lo + seconds(7), lo + width + 1),
                full.utilization_between(lo, lo + width));
    }
  }
  // The full-history core answers from its intervals: checkpoints agree
  // with the exact busy time.
  EXPECT_EQ(full.coarse_utilization(width, 4 * width),
            full.utilization_between(width, 4 * width));
  EXPECT_GT(brief.coarse_utilization(0, loop.now()), 0.0);
  EXPECT_EQ(brief.coarse_utilization(width, width + 1), 0.0);  // empty
}

TEST(TimeSeries, WindowQueriesMatchLinearScan) {
  // Binary-searched windows visit the same samples in the same order as
  // a scan from the front, so every reduction is bit-identical: random
  // series with duplicate timestamps, queried in and out of range and
  // with inverted bounds.
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    TimeSeries series;
    std::vector<TimeSeries::Sample> all;
    TimePoint t = rng.uniform_int(-50, 50);
    const auto n = rng.uniform_int(0, 40);
    for (std::int64_t i = 0; i < n; ++i) {
      t += rng.uniform() < 0.3 ? 0 : rng.uniform_int(1, 20);
      const double v = rng.uniform(-5.0, 5.0);
      series.record(t, v);
      all.push_back({t, v});
    }
    for (int q = 0; q < 50; ++q) {
      const TimePoint lo = rng.uniform_int(-80, t + 30);
      const TimePoint hi = rng.uniform_int(lo - 10, t + 60);
      double sum = 0.0, best = 0.0, sx = 0, sy = 0, sxx = 0, sxy = 0;
      std::size_t count = 0;
      std::optional<double> at;
      for (const auto& s : all) {
        if (s.t <= hi) at = s.value;
        if (s.t < lo || s.t > hi) continue;
        sum += s.value;
        best = count == 0 ? s.value : std::max(best, s.value);
        const double x = to_seconds(s.t - lo);
        sx += x;
        sy += s.value;
        sxx += x * x;
        sxy += x * s.value;
        ++count;
      }
      ASSERT_EQ(series.count_in(lo, hi), count);
      ASSERT_EQ(series.sum_in(lo, hi), sum);
      ASSERT_EQ(series.max_in(lo, hi), best);
      ASSERT_EQ(series.mean_in(lo, hi),
                count == 0 ? 0.0 : sum / static_cast<double>(count));
      ASSERT_EQ(series.value_at(hi), at);
      const double denom = static_cast<double>(count) * sxx - sx * sx;
      const double trend =
          count < 2 || denom == 0.0
              ? 0.0
              : (static_cast<double>(count) * sxy - sx * sy) / denom;
      ASSERT_EQ(series.trend_in(lo, hi), trend);
    }
  }
}

TEST(CpuCore, NoHistoryCoreKeepsTimingButNoIntervals) {
  // The same seeded job stream (idle gaps, queued bursts, zero-cost jobs)
  // on a default core and a kNoHistory core: every FCFS answer agrees, but
  // only the default core retains intervals and answers utilization.
  EventLoop loop;
  CpuCore kept(loop);
  CpuCore none(loop, CpuCore::kNoHistory);
  Rng rng(43);
  std::vector<TimePoint> fired_kept;
  std::vector<TimePoint> fired_none;
  for (std::size_t i = 0; i < 5000; ++i) {
    const TimePoint idle_from = std::max(loop.now(), kept.free_at());
    loop.run_until(rng.chance(0.6)
                       ? idle_from + rng.uniform_int(1, microseconds(3))
                       : loop.now() + rng.uniform_int(0, microseconds(1)));
    const Duration cost =
        rng.chance(0.1) ? 0 : rng.uniform_int(1, microseconds(2));
    Duration wait_kept = -1;
    Duration wait_none = -1;
    const TimePoint end_kept = kept.execute(
        cost, [&] { fired_kept.push_back(loop.now()); }, &wait_kept);
    const TimePoint end_none = none.execute(
        cost, [&] { fired_none.push_back(loop.now()); }, &wait_none);
    ASSERT_EQ(end_kept, end_none) << "job " << i;
    ASSERT_EQ(wait_kept, wait_none) << "job " << i;
    ASSERT_EQ(kept.free_at(), none.free_at()) << "job " << i;
    ASSERT_EQ(kept.backlog(), none.backlog()) << "job " << i;
  }
  loop.run();
  EXPECT_EQ(fired_kept, fired_none);
  EXPECT_EQ(fired_none.size(), 5000u);
  EXPECT_EQ(kept.jobs(), none.jobs());
  EXPECT_EQ(kept.total_busy(), none.total_busy());
  EXPECT_GT(kept.interval_count(), 0u);
  EXPECT_EQ(none.interval_count(), 0u);
  EXPECT_GT(kept.utilization(seconds(1)), 0.0);
  EXPECT_THROW((void)none.utilization(seconds(1)), std::logic_error);

  CpuSet set(loop, 2, CpuCore::kNoHistory);
  set.execute(microseconds(5));
  EXPECT_EQ(set.core(0).interval_count() + set.core(1).interval_count(), 0u);
  EXPECT_THROW((void)set.utilization(seconds(1)), std::logic_error);
  EXPECT_THROW((void)set.max_core_utilization(seconds(1)), std::logic_error);
}

}  // namespace
}  // namespace canal::sim
