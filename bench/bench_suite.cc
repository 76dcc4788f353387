// bench_suite: the one-binary bench front-end. Expands the family table
// (scenarios.h `bench_families`) into a (family x variant x seed) grid of
// runner::RunSpecs, fans them out over a work-stealing thread pool
// (--jobs), and reduces the results single-threaded in spec-key order — so
// stdout tables and the --json goldens (one BENCH_*.json per golden the
// table names) are byte-identical at any worker count.
//
// See EXPERIMENTS.md for the paper-figure -> command map.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
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

constexpr const char* kFlags = R"(bench_suite — parallel experiment suite

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
  --seeds K      run every scenario at seeds 1..K (default 1; families
                 without a seed sweep run at seed 1 only). K > 1 adds a
                 "<section>.seeds" block per scenario to --json output with
                 mean/p50/p95/min/max across seeds. Base sections always
                 report seed 1, so they are independent of K.
  --json         write each family's golden (deterministic simulated
                 values plus machine-dependent "wall." keys) into the
                 current directory:
)";

constexpr const char* kFlagsTail = R"(
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
)";

/// --help text: the flags, the goldens --json writes and one line per
/// family, all from the family table.
std::string usage(const std::vector<Family>& families) {
  std::string text = kFlags;
  std::set<std::string> goldens;
  for (const Family& family : families) goldens.insert(family.golden);
  for (const std::string& golden : goldens) {
    text += "                   " + golden + "\n";
  }
  text += kFlagsTail;
  for (const Family& family : families) {
    char name[32];
    std::snprintf(name, sizeof(name), "  %-22s ", family.name.c_str());
    text += name + family.summary + "\n";
  }
  return text;
}

/// The table row behind a registered scenario name.
const Family& family_of(const std::vector<Family>& families,
                        const std::string& name) {
  for (const Family& family : families) {
    if (family.name == name) return family;
  }
  throw std::logic_error("no family named " + name);
}

void print_family_tables(const std::vector<Family>& families,
                         const std::vector<runner::SweepGroup>& groups) {
  // Family order follows the reduced (key-sorted) group order.
  std::vector<std::string> names;
  for (const auto& group : groups) {
    const std::string& scenario = group.runs.front()->spec.scenario;
    if (names.empty() || names.back() != scenario) {
      names.push_back(scenario);
    }
  }
  for (const std::string& family : names) {
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
      const std::string& metric = family_of(families, family).headline;
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
    const std::vector<Family>& families,
    const std::vector<runner::SweepGroup>& groups) {
  std::map<std::string, JsonReport> reports;
  for (const auto& group : groups) {
    const runner::RunSpec& spec = group.runs.front()->spec;
    const Family& family = family_of(families, spec.scenario);
    const std::string section = family.section_for(spec.variant);
    JsonReport& report = reports[family.golden];
    const runner::Outcome* base = group.base();
    if (base == nullptr) {
      report.set(section, "failed", 1.0);
      report.set(section, "error",
                 group.runs.front()->result.error);
      continue;
    }
    report.add_metrics(section, base->result.metrics);
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
        const std::string merged_section = section + ".merged";
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
      const std::string sweep_section = section + ".seeds";
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
  const std::vector<Family> families = bench_families();
  const std::string help = usage(families);
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
                     help.c_str());
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
                     value, help.c_str());
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
                     repeat, help.c_str());
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
      std::printf("%s", help.c_str());
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg.c_str(),
                   help.c_str());
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
  register_families(runner, families);
  std::vector<runner::RunSpec> specs = family_specs(families, seeds);
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
  print_family_tables(families, groups);

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
    for (const auto& [file, report] : build_reports(families, groups)) {
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
