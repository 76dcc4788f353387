// Measurement primitives: histograms, time series, rate meters.
//
// These back both the benchmark harness (percentiles, CDFs) and the Canal
// control plane itself (trend correlation for root-cause analysis, HWHM
// sampling for in-phase service migration).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/ring_deque.h"
#include "sim/time.h"

namespace canal::sim {

/// Sample-retaining histogram with exact percentiles.
///
/// Memory grows with the sample count — use telemetry::HdrHistogram on
/// unbounded hot paths; this class is for exact small-N assertions and
/// offline analysis where every sample matters.
///
/// Order-statistic queries (min/max/percentile/cdf) share one lazily
/// maintained sorted copy of the samples: the first query after a record()
/// sorts once (O(n log n)) and every further query until the next record()
/// reuses it (O(1) lookups). Interleaving record() and percentile() —
/// bench_suite's selfperf scenario measures exactly this pattern — costs
/// one re-sort per record/query transition, not one per query.
class Histogram {
 public:
  void record(double value);
  void clear() noexcept;

  /// Pre-sizes the sample (and sorted-copy) buffers so a bounded
  /// measurement phase can record() without heap traffic.
  void reserve(std::size_t n) {
    samples_.reserve(n);
    sorted_.reserve(n);
  }

  /// True when the sorted copy is current (no record() since the last
  /// order-statistic query). Exposed so tests can pin the caching
  /// behaviour documented above.
  [[nodiscard]] bool sorted_cached() const noexcept { return sorted_valid_; }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  /// Exact percentile by nearest-rank; p in [0, 100].
  [[nodiscard]] double percentile(double p) const;

  /// (value, cumulative fraction) pairs at `points` evenly spaced ranks.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(
      std::size_t points = 20) const;

  [[nodiscard]] std::span<const double> samples() const noexcept {
    return samples_;
  }

 private:
  void ensure_sorted() const;
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Timestamped value series with trailing-window reductions. record()
/// times must be nondecreasing: window queries binary-search for their
/// bounds.
class TimeSeries {
 public:
  struct Sample {
    TimePoint t;
    double value;
  };

  /// `max_age` bounds retention; 0 keeps everything.
  explicit TimeSeries(Duration max_age = 0) : max_age_(max_age) {}

  void record(TimePoint t, double value);
  void clear() noexcept { samples_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] const RingDeque<Sample>& samples() const noexcept {
    return samples_;
  }

  [[nodiscard]] double sum_in(TimePoint lo, TimePoint hi) const;
  [[nodiscard]] double mean_in(TimePoint lo, TimePoint hi) const;
  [[nodiscard]] double max_in(TimePoint lo, TimePoint hi) const;
  [[nodiscard]] std::size_t count_in(TimePoint lo, TimePoint hi) const;

  /// Latest value at or before `t`, if any.
  [[nodiscard]] std::optional<double> value_at(TimePoint t) const;

  /// Least-squares slope (value units per second) over [lo, hi].
  [[nodiscard]] double trend_in(TimePoint lo, TimePoint hi) const;

 private:
  void prune(TimePoint now);
  /// Index range [first, last) of the samples inside [lo, hi] (empty when
  /// lo > hi).
  [[nodiscard]] std::pair<std::size_t, std::size_t> window(TimePoint lo,
                                                          TimePoint hi) const;
  Duration max_age_;
  // RingDeque: the sliding retention window would otherwise churn deque
  // chunk allocations forever in steady state (see ring_deque.h).
  RingDeque<Sample> samples_;
};

/// Events-per-second meter over the sliding window (now - window, now].
/// O(1) amortized per record/rate call (incremental window sum).
class RateMeter {
 public:
  explicit RateMeter(Duration window = kSecond) : window_(window) {}

  void record(TimePoint t, double weight = 1.0);
  [[nodiscard]] double rate(TimePoint now) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  void prune(TimePoint now) const;

  Duration window_;
  mutable RingDeque<std::pair<TimePoint, double>> events_;
  mutable double window_sum_ = 0.0;
  std::uint64_t total_ = 0;
};

/// Pearson correlation of two equal-length vectors; 0 if degenerate.
[[nodiscard]] double pearson(std::span<const double> a,
                             std::span<const double> b);

/// Half-width-at-half-maximum window of a daily series: the contiguous
/// period around the peak where values stay >= (max+min)/2. Returns
/// [start, end] timestamps. Used by §6.3's migration target selection.
struct HwhmWindow {
  TimePoint start = 0;
  TimePoint end = 0;
  TimePoint peak = 0;
};
[[nodiscard]] HwhmWindow hwhm_window(const TimeSeries& series);

}  // namespace canal::sim
