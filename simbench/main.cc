// simbench: the simulator's own speed, end to end and layer by layer.
//
//   simbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//            [--trace-out FILE] | --list | --help
//
// Repeats the workload (fresh world each time) until --seconds of wall
// time have passed and checks every repetition's simulated outputs. run_s
// and cpu_s sum each drain segment's fastest repetition; setup_s is the
// fastest set-up. The last line of stdout is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (run_s, cpu_s,
// setup_s, peak_rss_mb); with --trace 1 they are the per-layer ones, taken
// from traced repetitions interleaved with untraced ones. region_sharded
// runs on min(4, nproc - 1) shards.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "trace.h"
#include "workloads.h"

namespace {

using namespace simbench;

constexpr int kMinUntracedReps = 3;
constexpr int kMinTracedReps = 1;
/// Set-up is short next to a drain, so extra set-up-only repetitions top
/// the sample up to this many, within kSetupBudgetSeconds.
constexpr std::size_t kMinSetupSamples = 41;
constexpr double kSetupBudgetSeconds = 1.5;
/// Wall-time ceiling for the repetition loop, whatever --seconds says.
constexpr double kMaxLoopSeconds = 150.0;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: simbench --workload NAME [--seed N] [--seconds N] "
               "[--trace 0|1] [--trace-out FILE]\n"
               "       simbench --list\n"
               "  --workload   one of the names --list prints\n"
               "  --seed       input seed (default 1)\n"
               "  --seconds    wall seconds of repetitions (default 10)\n"
               "  --trace      1 = traced run reporting per-layer metrics\n"
               "  --trace-out  where a traced run writes its spans (JSON)\n");
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The fastest repetition: the figure setup_s reports. On a shared host,
/// interference from other tenants only ever adds time, so the fastest of
/// many short repetitions stays on the undisturbed speed where the median
/// wanders with the neighbours' load.
double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

/// The figures run_s and cpu_s report: the drain with the host's
/// interference taken out. Interference comes in bursts of milliseconds to
/// seconds, so a whole 0.1-0.5 s repetition is rarely untouched, but each
/// ~1 ms segment (or shard task) is in some repetition. Segment k does the
/// same simulated work in every repetition, so the fastest repetition of
/// each part, put back together, is the undisturbed drain: per segment, the
/// serial part plus the slowest lane for wall time, plus every lane for CPU.
class FastestSegments {
 public:
  /// False when `segments` is not shaped like the repetitions before.
  bool add(const std::vector<Segment>& segments) {
    if (best_.empty()) {
      best_ = segments;
      return true;
    }
    if (segments.size() != best_.size()) return false;
    for (std::size_t k = 0; k < best_.size(); ++k) {
      Segment& best = best_[k];
      const Segment& seg = segments[k];
      if (seg.lane_wall_s.size() != best.lane_wall_s.size()) return false;
      best.wall_s = std::min(best.wall_s, seg.wall_s);
      best.cpu_s = std::min(best.cpu_s, seg.cpu_s);
      for (std::size_t i = 0; i < best.lane_wall_s.size(); ++i) {
        best.lane_wall_s[i] = std::min(best.lane_wall_s[i], seg.lane_wall_s[i]);
        best.lane_cpu_s[i] = std::min(best.lane_cpu_s[i], seg.lane_cpu_s[i]);
      }
    }
    return true;
  }
  [[nodiscard]] double wall_s() const {
    double total = 0.0;
    for (const Segment& seg : best_) {
      double slowest = 0.0;
      for (const double s : seg.lane_wall_s) slowest = std::max(slowest, s);
      total += seg.wall_s + slowest;
    }
    return total;
  }
  [[nodiscard]] double cpu_s() const {
    double total = 0.0;
    for (const Segment& seg : best_) {
      total += seg.cpu_s;
      for (const double s : seg.lane_cpu_s) total += s;
    }
    return total;
  }
  [[nodiscard]] std::size_t size() const noexcept { return best_.size(); }
  /// The serial parts alone (wall, CPU).
  [[nodiscard]] std::pair<double, double> serial_s() const {
    std::pair<double, double> total{0.0, 0.0};
    for (const Segment& seg : best_) {
      total.first += seg.wall_s;
      total.second += seg.cpu_s;
    }
    return total;
  }

 private:
  std::vector<Segment> best_;
};

/// Runs one repetition, then hands freed memory back so each repetition
/// starts from the same heap and the peak RSS is one repetition's, not
/// accumulated fragmentation.
Rep trimmed_rep(const RunConfig& config, SpanRecorder* spans) {
  Rep rep = run_rep(config, spans);
  malloc_trim(0);
  return rep;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Strict integer: digits only, in [lo, hi]; anything else is exit 2.
long long parse_int(const char* flag, const char* value, long long lo,
                    long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (value[0] == '\0' || end == value || *end != '\0' || errno != 0 ||
      parsed < lo || parsed > hi) {
    std::fprintf(stderr, "simbench: %s expects an integer in [%lld, %lld], "
                 "got '%s'\n", flag, lo, hi, value);
    std::exit(2);
  }
  return parsed;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool list = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "simbench: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(
          parse_int("--seed", value(), 0, 1LL << 62));
    } else if (arg == "--seconds") {
      o.seconds = static_cast<int>(parse_int("--seconds", value(), 1, 600));
    } else if (arg == "--trace") {
      o.trace = parse_int("--trace", value(), 0, 1) == 1;
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--list") {
      o.list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "simbench: unknown argument '%s'\n", argv[i]);
      usage(stderr);
      std::exit(2);
    }
  }
  return o;
}

int run(const Options& o) {
  const std::size_t cpus = host_cpus();
  RunConfig config;
  config.workload = o.workload;
  config.seed = o.seed;
  // One CPU is left for the coordinator thread and the host, at most 4
  // shards: on a 4-CPU host 3 shards drain as fast as 4 and burn less CPU
  // waiting at barriers.
  config.shards = std::clamp<std::size_t>(cpus - 1, 1, 4);

  const std::string stamp =
      "\"nproc\": " + std::to_string(cpus) + ", \"cpu\": \"" +
      json_escape(cpu_model()) + "\", \"compiler\": \"" +
      json_escape(__VERSION__) + "\", \"build_type\": \"" +
      json_escape(SIMBENCH_BUILD_TYPE) + "\", \"flags\": \"" +
      json_escape(SIMBENCH_CXX_FLAGS) + "\", \"workload\": \"" +
      json_escape(config.workload) + "\", \"seed\": " +
      std::to_string(config.seed) + ", \"shards\": " +
      std::to_string(config.workload == "region_sharded" ? config.shards : 1);
  std::printf("# host: {%s}\n", stamp.c_str());

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  if (config.workload == "region_sharded") {
    // Shard invariance: a shrunken region at 1 shard and at N shards must
    // produce the same digest.
    const auto [one, many] = region_shard_probe(config.seed, config.shards);
    ++attempted;
    const bool same = one == many;
    std::printf("# shard probe: 1 shard %s | %zu shards %s -> %s\n",
                one.str().c_str(), config.shards, many.str().c_str(),
                same ? "same" : "DIFFERENT");
    if (!same) {
      ++failed;
      correct = false;
    }
  }

  SpanRecorder spans;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::vector<double> traced_run_s;
  FastestSegments segments;
  FastestSegments traced_segments;
  std::vector<std::vector<std::pair<std::string, double>>> traced_layers;
  std::optional<Digest> reference;
  std::uint64_t violations = 0;
  std::uint64_t request_failures = 0;

  const std::int64_t loop_start = wall_ns();
  const auto elapsed = [&] {
    return static_cast<double>(wall_ns() - loop_start) / 1e9;
  };
  for (std::uint32_t rep_index = 0;; ++rep_index) {
    const int untraced = static_cast<int>(run_s.size());
    const int traced = static_cast<int>(traced_run_s.size());
    const bool enough = untraced >= kMinUntracedReps &&
                        (!o.trace || traced >= kMinTracedReps);
    if ((enough && elapsed() >= o.seconds) || elapsed() >= kMaxLoopSeconds) {
      break;
    }
    // Repetition 0 warms caches and the allocator: checked, not timed.
    // Traced runs interleave with untraced ones: even repetitions are
    // traced.
    const bool warmup = rep_index == 0;
    const bool trace_this = o.trace && !warmup && rep_index % 2 == 0;
    spans.set_run(rep_index);
    const Rep rep = trimmed_rep(config, trace_this ? &spans : nullptr);

    attempted += rep.attempted;
    failed += rep.failed + rep.violations;
    violations += rep.violations;
    request_failures += rep.failed;
    if (!reference) {
      reference = rep.digest;
    } else if (!(rep.digest == *reference)) {
      ++failed;
      correct = false;
      std::printf("# rep %u digest differs: %s\n", rep_index,
                  rep.digest.str().c_str());
    }
    bool same_segments = true;
    if (warmup) {
      // checked above, never timed
    } else if (trace_this) {
      traced_run_s.push_back(rep.run_s);
      traced_layers.push_back(rep.layers);
      same_segments = traced_segments.add(rep.segments);
    } else {
      setup_s.push_back(rep.setup_s);
      run_s.push_back(rep.run_s);
      cpu_s.push_back(rep.cpu_s);
      same_segments = segments.add(rep.segments);
    }
    if (!same_segments) {
      ++failed;
      correct = false;
      std::printf("# rep %u drained in %zu segments, not %zu\n", rep_index,
                  rep.segments.size(),
                  (trace_this ? traced_segments : segments).size());
    }
    std::printf("# rep %u%s: setup_s=%.4f run_s=%.4f cpu_s=%.4f requests=%"
                PRIu64 "\n",
                rep_index,
                warmup ? " (warm-up)" : trace_this ? " (traced)" : "",
                rep.setup_s, rep.run_s, rep.cpu_s, rep.attempted);
  }
  RunConfig setup_config = config;
  setup_config.setup_only = true;
  const std::int64_t setup_start = wall_ns();
  while (setup_s.size() < kMinSetupSamples &&
         static_cast<double>(wall_ns() - setup_start) / 1e9 <
             kSetupBudgetSeconds) {
    setup_s.push_back(trimmed_rep(setup_config, nullptr).setup_s);
  }
  std::printf("# setup samples: %zu\n", setup_s.size());
  if (violations > 0 || request_failures > 0) correct = false;

  const Digest digest = reference.value_or(Digest{});
  std::printf("# digest: %s\n", digest.str().c_str());
  std::printf("# conservation: %" PRIu64 " violations, %" PRIu64
              " failed simulated requests\n",
              violations, request_failures);
  const double error_rate =
      digest.sent == 0 ? 0.0
                       : static_cast<double>(digest.sent - digest.ok) /
                             static_cast<double>(digest.sent);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::printf("# medians: run_s %.6f s, cpu_s %.6f s, setup_s %.6f s over "
              "%zu/%zu/%zu samples\n",
              median(run_s), median(cpu_s), median(setup_s), run_s.size(),
              cpu_s.size(), setup_s.size());
  std::printf("# fastest repetition: run_s %.6f s, cpu_s %.6f s; drain cut "
              "into %zu segments\n",
              fastest(run_s), fastest(cpu_s), segments.size());
  const auto [serial_wall, serial_cpu] = segments.serial_s();
  std::printf("# fastest segments: wall %.6f s (serial %.6f s), cpu %.6f s "
              "(serial %.6f s)\n",
              segments.wall_s(), serial_wall, segments.cpu_s(), serial_cpu);
  const double run_best = segments.wall_s();
  const double cpu_best = segments.cpu_s();
  const double setup_best = fastest(setup_s);
  std::printf("run_s %.6f s\ncpu_s %.6f s\nsetup_s %.6f s\n"
              "peak_rss_mb %.3f MB\nerror_rate %.6f ratio\n",
              run_best, cpu_best, setup_best, peak_rss_mb(), error_rate);
  if (!o.trace) {
    metrics.push_back({"run_s", {run_best, "s"}});
    metrics.push_back({"cpu_s", {cpu_best, "s"}});
    metrics.push_back({"setup_s", {setup_best, "s"}});
    metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MB"}});
  } else {
    const double overhead =
        run_best > 0.0 ? (traced_segments.wall_s() / run_best - 1.0) * 100.0
                       : 0.0;
    const std::vector<MetricDef>& defs = layer_metrics();
    for (std::size_t m = 0; m < defs.size(); ++m) {
      std::vector<double> values;
      for (const auto& layers : traced_layers) values.push_back(layers[m].second);
      double value = median(values);
      if (defs[m].name == "trace.overhead_pct") value = overhead;
      metrics.push_back(
          {std::string(defs[m].name), {value, std::string(defs[m].unit)}});
      std::printf("%s %.6g %s\n", std::string(defs[m].name).c_str(), value,
                  std::string(defs[m].unit).c_str());
    }
    std::printf("# self time by span (ms; %zu spans over %zu traced reps):\n",
                spans.spans().size(), traced_run_s.size());
    for (const auto& t : spans.totals()) {
      std::printf("#   %-28s n=%-6" PRIu64 " total=%10.3f self=%10.3f\n",
                  t.name.c_str(), t.count, t.total_ms, t.self_ms);
    }
    if (!o.trace_out.empty()) {
      if (!spans.write_json(o.trace_out, stamp)) {
        std::fprintf(stderr, "simbench: cannot write %s\n",
                     o.trace_out.c_str());
        return 1;
      }
      std::printf("# spans written to %s\n", o.trace_out.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct && failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].second.first);
    json += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (options.list) {
    for (const WorkloadSpec& spec : workload_specs()) {
      std::printf("%-16s %s\n", std::string(spec.name).c_str(),
                  std::string(spec.why).c_str());
    }
    return 0;
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "simbench: refusing to time an unoptimised build (build type "
               "'%s'); configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or "
               "Release\n",
               SIMBENCH_BUILD_TYPE);
  return 1;
#endif
  if (options.workload.empty()) {
    std::fprintf(stderr, "simbench: --workload is required\n");
    usage(stderr);
    return 2;
  }
  if (!known_workload(options.workload)) {
    std::fprintf(stderr, "simbench: unknown workload '%s' (see --list)\n",
                 options.workload.c_str());
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
