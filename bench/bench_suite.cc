// bench_suite: the one-binary bench front-end. Expands the suite's
// (scenario x variant x seed) grid into runner::RunSpecs, fans them out
// over a work-stealing thread pool (--jobs), and reduces the results
// single-threaded in spec-key order — so stdout tables and the --json
// goldens (BENCH_latency.json, BENCH_throughput.json, BENCH_faults.json,
// BENCH_selfperf.json, BENCH_fairness.json, BENCH_resilience.json,
// BENCH_region.json, BENCH_controlplane.json, BENCH_ops.json) are
// byte-identical at any worker count.
//
// See EXPERIMENTS.md for the paper-figure -> command map.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_report.h"
#include "bench/scenarios.h"
#include "runner/runner.h"
#include "runner/sweep.h"
#include "telemetry/trace_export.h"

namespace canal::bench {
namespace {

constexpr const char* kUsage = R"(bench_suite — parallel experiment suite

Usage: bench_suite [flags]

  --jobs N       worker threads for the run fan-out (default 1). N <= 0
                 selects hardware_concurrency(). Output is byte-identical
                 for every N; only wall-clock changes.
  --shards N     region_scale only: partitions hosting the region's AZ
                 domains, each with its own event loop and worker thread
                 (default 1). N <= 0 selects hardware_concurrency().
                 Output is byte-identical for every N; only wall-clock
                 (and the "wall." JSON keys) changes.
  --repeat N     selfperf only: repeat each run N times (fresh testbed per
                 repeat) and report the median wall-clock with variance
                 under the "wall." JSON keys. Simulated counters are
                 unaffected (identical across repeats).
  --seeds K      run every scenario at seeds 1..K (default 1). K > 1 adds a
                 "<section>.seeds" block per scenario to --json output with
                 mean/p50/p95/min/max across seeds. Base sections always
                 report seed 1, so they are independent of K.
  --json         write BENCH_latency.json, BENCH_throughput.json,
                 BENCH_faults.json, BENCH_selfperf.json,
                 BENCH_fairness.json, BENCH_resilience.json,
                 BENCH_region.json, BENCH_controlplane.json and
                 BENCH_ops.json (deterministic simulated values plus
                 machine-dependent "wall." keys) into the current
                 directory.
  --filter STR   run only specs whose scenario/variant key contains STR
                 (e.g. --filter throughput_knee, --filter canal).
  --trace-out F  write the noisy_neighbor/canal run's sampled traces as
                 Chrome trace-event JSON (chrome://tracing) to F. The
                 export is validated (slice tiling, parseability) first.
  --validate-trace F
                 validate an existing Chrome trace-event JSON file and
                 exit (0 = valid).
  --list         print the spec keys that would run, then exit.
  --help         this text.

Scenarios (see EXPERIMENTS.md for the figure mapping):
  latency_light    Fig 10  light-load latency + span decomposition
  latency_bimodal  Fig 24  production-like E2E latency distribution
  throughput_knee  Fig 11  P99-vs-load sweep and throughput knee
  faults_podkill   stale-endpoint pod crashes, retries on/off
  faults_gwcrash   gateway replica crash, health monitor on/off
  faults_linkloss  link loss + latency spike, per-try timeouts
  noisy_neighbor   Fig 16  per-tenant fairness under a one-tenant surge
  resilience_retry_storm   dead service's retry storm vs circuit breaker
  resilience_qod           query-of-death pod vs outlier ejection
  resilience_ratelimit     tenant surge vs per-tenant token buckets
  selfperf         simulator wall-clock speed + fastpath hit rates
  region_scale     §6 region operating point: 1120 VMs, 1M RPS aggregate,
                   Table 3 tenants, sharded across --shards partitions
  config_churn_storm  rolling config epochs through the modeled
                   propagation layer: convergence time, epoch skew, tail
                   latency under churn
  cert_rotation_wave  batched cert re-sign wave + epoch distribution of
                   the fresh certs, under load
  ops_surge_scaling  Fig 16  noisy-neighbour surge handled by precise
                   scaling (Reuse), sampled gateway
  ops_daily        Fig 20  a day of live operations: RPS + error codes
  ops_inphase      §6.3  in-phase services scattered by the pattern monitor
  ops_health_checks  Tables 6/7  health-check probes and their aggregation
)";

struct SectionTarget {
  const char* file;
  std::string section;
};

/// Which golden file a scenario feeds, and under what section name
/// (section names keep the retired binaries' layout where one existed).
SectionTarget section_target(const runner::RunSpec& spec) {
  if (spec.scenario == "latency_light") {
    return {"BENCH_latency.json", spec.variant};
  }
  if (spec.scenario == "latency_bimodal") {
    return {"BENCH_latency.json", "production"};
  }
  if (spec.scenario == "throughput_knee") {
    return {"BENCH_throughput.json", spec.variant};
  }
  if (spec.scenario == "faults_podkill") {
    return {"BENCH_faults.json", "podkill." + spec.variant};
  }
  if (spec.scenario == "faults_gwcrash") {
    return {"BENCH_faults.json", "gwcrash." + spec.variant};
  }
  if (spec.scenario == "faults_linkloss") {
    return {"BENCH_faults.json", "linkloss." + spec.variant};
  }
  if (spec.scenario == "noisy_neighbor") {
    return {"BENCH_fairness.json", "noisy_neighbor." + spec.variant};
  }
  if (spec.scenario == "resilience_retry_storm") {
    return {"BENCH_resilience.json", "retry_storm." + spec.variant};
  }
  if (spec.scenario == "resilience_qod") {
    return {"BENCH_resilience.json", "qod." + spec.variant};
  }
  if (spec.scenario == "resilience_ratelimit") {
    return {"BENCH_resilience.json", "ratelimit." + spec.variant};
  }
  if (spec.scenario == "region_scale") {
    return {"BENCH_region.json", spec.variant};
  }
  if (spec.scenario == "config_churn_storm") {
    return {"BENCH_controlplane.json", "churn." + spec.variant};
  }
  if (spec.scenario == "cert_rotation_wave") {
    return {"BENCH_controlplane.json", "rotation." + spec.variant};
  }
  if (spec.scenario.starts_with("ops_")) {
    return {"BENCH_ops.json", spec.scenario.substr(4)};
  }
  return {"BENCH_selfperf.json", spec.variant};
}

/// Headline metric summarized in the per-family seed-sweep table.
const char* headline_metric(const std::string& scenario) {
  if (scenario == "latency_light") return "mean_us";
  if (scenario == "latency_bimodal") return "p50_ms";
  if (scenario == "throughput_knee") return "knee_rps";
  if (scenario == "noisy_neighbor") return "jain";
  if (scenario == "resilience_retry_storm") return "victim_p99_fault_us";
  if (scenario == "resilience_qod") return "late_error_rate";
  if (scenario == "resilience_ratelimit") return "rate_limited";
  if (scenario == "selfperf") return "events";
  if (scenario == "region_scale") return "requests";
  if (scenario == "config_churn_storm") return "convergence_ms_max";
  if (scenario == "cert_rotation_wave") return "makespan_ms";
  if (scenario == "ops_surge_scaling") return "alert_to_finish_s";
  if (scenario == "ops_daily") return "scaling_events";
  if (scenario == "ops_inphase") return "peak_after";
  return "ok_fault";
}

void print_family_tables(const std::vector<runner::SweepGroup>& groups) {
  // Family order follows the reduced (key-sorted) group order.
  std::vector<std::string> families;
  for (const auto& group : groups) {
    const std::string& scenario = group.runs.front()->spec.scenario;
    if (families.empty() || families.back() != scenario) {
      families.push_back(scenario);
    }
  }
  for (const std::string& family : families) {
    const runner::SweepGroup* first = nullptr;
    std::size_t variants = 0;
    // Columns are the union of the family's metric names in first-seen
    // order — variants may report extra components (e.g. canal's redirect
    // span), and every row must stay aligned to the header.
    std::vector<std::string> columns;
    for (const auto& group : groups) {
      if (group.runs.front()->spec.scenario != family) continue;
      ++variants;
      if (group.base() == nullptr) continue;
      if (first == nullptr) first = &group;
      for (const auto& [name, value] : group.base()->result.metrics) {
        (void)value;
        bool seen = false;
        for (const auto& column : columns) seen = seen || column == name;
        if (!seen) columns.push_back(name);
      }
    }
    if (first == nullptr) continue;

    Table table(family);
    if (variants == 1) {
      // One variant prints one metric per row: the ops_* families carry
      // timelines of a hundred metrics, far too wide for a single row.
      table.header({"metric", first->runs.front()->spec.variant});
      table.row({"seeds", std::to_string(first->runs.size())});
      for (const auto& [name, value] : first->base()->result.metrics) {
        table.row({name, JsonReport::format_number(value)});
      }
    } else {
      std::vector<std::string> header = {"variant", "seeds"};
      header.insert(header.end(), columns.begin(), columns.end());
      table.header(header);
      for (const auto& group : groups) {
        if (group.runs.front()->spec.scenario != family) continue;
        const runner::Outcome* base = group.base();
        std::vector<std::string> row = {group.runs.front()->spec.variant,
                                        std::to_string(group.runs.size())};
        if (base == nullptr) {
          row.push_back("FAILED: " + group.runs.front()->result.error);
        } else {
          for (const auto& column : columns) {
            const double* value = base->result.find(column);
            row.push_back(value == nullptr
                              ? ""
                              : JsonReport::format_number(*value));
          }
        }
        table.row(row);
      }
    }
    table.print();

    // Seed-sweep whiskers for the family's headline metric.
    if (first->runs.size() > 1) {
      const std::string metric = headline_metric(family);
      Table sweep(family + " seed sweep: " + metric);
      sweep.header({"variant", "mean", "p50", "p95", "min", "max"});
      for (const auto& group : groups) {
        if (group.runs.front()->spec.scenario != family) continue;
        for (const auto& [name, stats] : group.metrics) {
          if (name != metric) continue;
          sweep.row({group.runs.front()->spec.variant,
                     JsonReport::format_number(stats.mean),
                     JsonReport::format_number(stats.p50),
                     JsonReport::format_number(stats.p95),
                     JsonReport::format_number(stats.min),
                     JsonReport::format_number(stats.max)});
        }
      }
      sweep.print();
    }

    // Per-variant notes (sweep traces, wall-clock readings).
    for (const auto& group : groups) {
      if (group.runs.front()->spec.scenario != family) continue;
      const runner::Outcome* base = group.base();
      if (base == nullptr) continue;
      for (const auto& [key, value] : base->result.notes) {
        std::printf("  %s %s: %s\n",
                    group.runs.front()->spec.variant.c_str(), key.c_str(),
                    value.c_str());
      }
    }
  }
}

/// Folds the reduced groups into the per-file JSON reports. Pure function
/// of the (key-ordered) groups, so it never depends on --jobs.
std::map<std::string, JsonReport> build_reports(
    const std::vector<runner::SweepGroup>& groups) {
  std::map<std::string, JsonReport> reports;
  for (const auto& group : groups) {
    const runner::RunSpec& spec = group.runs.front()->spec;
    const SectionTarget target = section_target(spec);
    JsonReport& report = reports[target.file];
    const runner::Outcome* base = group.base();
    if (base == nullptr) {
      report.set(target.section, "failed", 1.0);
      report.set(target.section, "error",
                 group.runs.front()->result.error);
      continue;
    }
    report.add_metrics(target.section, base->result.metrics);
    // Scenarios that attach a per-run MetricsRegistry (noisy_neighbor) get
    // a ".merged" section: the per-seed registries folded with
    // runner::merge_group_registries (counters add, histograms merge
    // exactly) and re-summarized as one fairness report — the cross-seed
    // aggregate a fleet-wide collector would compute.
    if (group.runs.size() > 1 && base->result.registry != nullptr) {
      const telemetry::MetricsRegistry merged =
          runner::merge_group_registries(group);
      const auto fairness = telemetry::FairnessReport::from_registry(merged);
      if (!fairness.tenants.empty()) {
        const std::string merged_section = target.section + ".merged";
        for (const auto& tenant : fairness.tenants) {
          const std::string prefix =
              "t" + std::to_string(net::id_value(tenant.tenant)) + ".";
          report.set(merged_section, prefix + "requests",
                     static_cast<double>(tenant.requests));
          report.set(merged_section, prefix + "share", tenant.share);
          report.set(merged_section, prefix + "error_rate",
                     tenant.error_rate);
        }
        report.set(merged_section, "jain", fairness.jain_index);
      }
    }
    if (group.runs.size() > 1) {
      const std::string sweep_section = target.section + ".seeds";
      report.set(sweep_section, "seeds",
                 static_cast<double>(group.runs.size()));
      std::size_t failed = 0;
      for (const runner::Outcome* run : group.runs) {
        if (!run->result.ok) ++failed;
      }
      if (failed > 0) {
        report.set(sweep_section, "failed_seeds",
                   static_cast<double>(failed));
      }
      for (const auto& [name, stats] : group.metrics) {
        report.set(sweep_section, name + ".mean", stats.mean);
        report.set(sweep_section, name + ".p50", stats.p50);
        report.set(sweep_section, name + ".p95", stats.p95);
        report.set(sweep_section, name + ".min", stats.min);
        report.set(sweep_section, name + ".max", stats.max);
      }
    }
  }
  // Acceptance record for the runner PR: wall-clock of the four retired
  // serial binaries (bench_latency + bench_throughput + bench_faults +
  // bench_selfperf, summed: 49 + 736 + 246 + 2056 ms) vs this suite,
  // measured back-to-back, uncontended, at seeds=1 on the same machine.
  // suite_critical_path_ms is the longest single run (selfperf/canal) —
  // the suite's parallel wall-clock floor once workers >= runnable specs,
  // i.e. what `--jobs N` converges to on a machine with >= ~5 free cores.
  // (The CI container is 1-CPU, where --jobs N is verified byte-identical
  // but cannot be faster; see EXPERIMENTS.md "Suite self-measurement".)
  if (auto it = reports.find("BENCH_selfperf.json"); it != reports.end()) {
    it->second.set("suite_baseline", "serial_binaries_wall_ms", 3087.0);
    it->second.set("suite_baseline", "suite_jobs1_wall_ms", 3049.0);
    it->second.set("suite_baseline", "suite_critical_path_ms", 966.0);
    it->second.set("suite_baseline", "parallel_speedup_vs_serial_binaries",
                   3087.0 / 966.0);
  }
  return reports;
}

int run_suite(int argc, char** argv) {
  std::size_t jobs = 1;
  std::size_t shards = 0;  // 0 = flag absent, scenario default applies
  std::uint64_t seeds = 1;
  long long repeat = 1;
  bool json = false;
  bool list = false;
  std::string filter;
  std::string trace_out;
  std::string validate_trace;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", arg.c_str(),
                     kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict integer parse: trailing junk or an empty value is a usage
    // error (exit 2), never a silently-degenerate pool size.
    const auto parse_int = [&](const char* value) -> long long {
      char* end = nullptr;
      const long long parsed = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0') {
        std::fprintf(stderr, "%s: not an integer: %s\n%s", arg.c_str(),
                     value, kUsage);
        std::exit(2);
      }
      return parsed;
    };
    if (arg == "--jobs") {
      const long long parsed = parse_int(next_value());
      if (parsed <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw == 0 ? 1 : hw;
        std::fprintf(stderr,
                     "--jobs %lld: clamping to hardware_concurrency() = "
                     "%zu\n",
                     parsed, jobs);
      } else {
        jobs = static_cast<std::size_t>(parsed);
      }
    } else if (arg == "--shards") {
      // Same validation contract as --jobs: strict integer (exit 2 on
      // junk), N <= 0 clamps to hardware_concurrency with a stderr note.
      const long long parsed = parse_int(next_value());
      if (parsed <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        shards = hw == 0 ? 1 : hw;
        std::fprintf(stderr,
                     "--shards %lld: clamping to hardware_concurrency() = "
                     "%zu\n",
                     parsed, shards);
      } else {
        shards = static_cast<std::size_t>(parsed);
      }
    } else if (arg == "--seeds") {
      const long long parsed = parse_int(next_value());
      seeds = parsed <= 0 ? 1 : static_cast<std::uint64_t>(parsed);
    } else if (arg == "--repeat") {
      repeat = parse_int(next_value());
      if (repeat <= 0) {
        std::fprintf(stderr, "--repeat: want a positive count, got %lld\n%s",
                     repeat, kUsage);
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--filter") {
      filter = next_value();
    } else if (arg == "--trace-out") {
      trace_out = next_value();
    } else if (arg == "--validate-trace") {
      validate_trace = next_value();
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }
  if (!validate_trace.empty()) {
    std::ifstream in(validate_trace);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", validate_trace.c_str());
      return 2;
    }
    std::ostringstream body;
    body << in.rdbuf();
    std::string error;
    if (!telemetry::validate_chrome_trace(body.str(), &error)) {
      std::fprintf(stderr, "%s: invalid trace: %s\n",
                   validate_trace.c_str(), error.c_str());
      return 1;
    }
    std::printf("%s: valid Chrome trace-event JSON\n",
                validate_trace.c_str());
    return 0;
  }

  runner::Runner runner;
  register_bench_scenarios(runner);
  std::vector<runner::RunSpec> specs = suite_specs(seeds);
  if (repeat > 1) {
    // Wall-clock repeats only make sense for the scenario that measures
    // wall-clock; every other scenario is invariant in everything --repeat
    // could change.
    for (auto& spec : specs) {
      if (spec.scenario == "selfperf") {
        spec.overrides.emplace_back("repeat",
                                    static_cast<double>(repeat));
      }
    }
  }
  if (shards > 0) {
    // Shard-count only shapes wall-clock, and only region_scale hosts a
    // sharded simulation; everything else ignores the flag.
    for (auto& spec : specs) {
      if (spec.scenario == "region_scale") {
        spec.overrides.emplace_back("shards",
                                    static_cast<double>(shards));
      }
    }
  }
  if (!filter.empty()) {
    std::vector<runner::RunSpec> kept;
    for (auto& spec : specs) {
      if (spec.group_key().find(filter) != std::string::npos) {
        kept.push_back(std::move(spec));
      }
    }
    specs = std::move(kept);
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no specs match --filter %s\n", filter.c_str());
    return 2;
  }
  if (list) {
    for (const auto& spec : specs) std::printf("%s\n", spec.key().c_str());
    return 0;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<runner::Outcome> outcomes = runner.run(std::move(specs),
                                                           jobs);
  const double total_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start).count();

  const std::vector<runner::SweepGroup> groups =
      runner::group_sweeps(outcomes);
  print_family_tables(groups);

  std::size_t failed = 0;
  for (const auto& outcome : outcomes) {
    if (!outcome.result.ok) {
      ++failed;
      std::fprintf(stderr, "FAILED %s: %s\n", outcome.spec.key().c_str(),
                   outcome.result.error.c_str());
    }
  }

  if (!trace_out.empty()) {
    // Export the canal variant's sampled traces when present (the default
    // grid's noisy_neighbor/canal, lowest seed); otherwise the first group
    // in key order that attached any.
    const telemetry::TraceExport* traces = nullptr;
    for (const bool prefer_canal : {true, false}) {
      for (const auto& group : groups) {
        const runner::Outcome* base = group.base();
        if (base == nullptr || base->result.traces == nullptr ||
            base->result.traces->empty()) {
          continue;
        }
        if (prefer_canal && base->spec.variant != "canal") continue;
        traces = base->result.traces.get();
        break;
      }
      if (traces != nullptr) break;
    }
    if (traces == nullptr) {
      std::fprintf(stderr,
                   "--trace-out: no run produced sampled traces (need a "
                   "noisy_neighbor spec in the grid)\n");
      return 1;
    }
    std::string error;
    if (!telemetry::validate_chrome_trace(traces->to_json(), &error)) {
      std::fprintf(stderr, "trace export failed validation: %s\n",
                   error.c_str());
      return 1;
    }
    if (!traces->write_file(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("  -> %s (%zu sampled traces)\n", trace_out.c_str(),
                traces->size());
  }

  if (json) {
    for (const auto& [file, report] : build_reports(groups)) {
      if (report.write_file(file)) {
        std::printf("  -> %s\n", file.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", file.c_str());
        return 1;
      }
    }
  }

  double run_sum_ms = 0;
  double run_max_ms = 0;
  for (const auto& outcome : outcomes) {
    run_sum_ms += outcome.wall_ms;
    if (outcome.wall_ms > run_max_ms) run_max_ms = outcome.wall_ms;
  }
  std::printf(
      "\nsuite: %zu runs, %zu jobs | wall %.0f ms | serial-equivalent "
      "%.0f ms | longest run %.0f ms\n",
      outcomes.size(), jobs, total_wall_ms, run_sum_ms, run_max_ms);
  if (failed > 0) {
    std::fprintf(stderr, "%zu run(s) failed\n", failed);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace canal::bench

int main(int argc, char** argv) {
  return canal::bench::run_suite(argc, argv);
}
