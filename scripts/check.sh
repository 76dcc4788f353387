#!/usr/bin/env bash
# One-command tier-1 gate: configure, build (src/ is -Wall -Wextra -Werror),
# and run the full test suite.
#
# Usage: scripts/check.sh [--sanitize[=address|=thread]] [build-dir]
#   --sanitize / --sanitize=address
#               build with AddressSanitizer + UndefinedBehaviorSanitizer
#               (separate build dir) and run the tests under them; any
#               leak, overflow, or UB fails the gate.
#   --sanitize=thread
#               build with ThreadSanitizer and exercise the experiment
#               runner: test_runner (work-stealing pool, fan-out/reduce),
#               test_sharded (sharded-simulation barrier + mailboxes on
#               the threaded runner), plus a multi-threaded bench_suite
#               smoke run. Any data race fails the gate.
#
# The default (Release, -O2) path also runs the determinism gate: the
# bench suite is run twice in scratch dirs — once at --jobs 8, once at
# --jobs 1 — and both outputs must be byte-identical to the committed
# BENCH_*.json goldens. This is the hard check that (a) wall-clock
# optimisations never change simulated results and (b) the parallel runner
# merges results by spec key, never by completion order.
#
# A failed configure, build or ctest stops the default path at once. After
# ctest, every gate runs even if an earlier one failed, so one failing
# gate (say, the host-speed selfperf gate) cannot hide the others; the run
# ends with one line per failed gate and exits non-zero if there is any.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

sanitize=""
case "${1:-}" in
  --sanitize|--sanitize=address)
    sanitize="address"
    shift
    ;;
  --sanitize=thread)
    sanitize="thread"
    shift
    ;;
esac

if [[ "${sanitize}" == "address" ]]; then
  build_dir="${1:-${repo_root}/build-asan}"
  san_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}"
  cmake --build "${build_dir}" -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "${build_dir}" -j "${jobs}" --output-on-failure
elif [[ "${sanitize}" == "thread" ]]; then
  build_dir="${1:-${repo_root}/build-tsan}"
  san_flags="-fsanitize=thread -fno-omit-frame-pointer"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}"
  cmake --build "${build_dir}" -j "${jobs}" \
    --target test_runner test_sharded bench_suite
  TSAN_OPTIONS=halt_on_error=1 "${build_dir}/tests/test_runner"
  # Shard-barrier races: the windowed ShardedSim round (per-shard loops,
  # mailbox hand-off at barriers) on the threaded runner, plus the tiny
  # sharded region with real dataplane traffic crossing shards.
  TSAN_OPTIONS=halt_on_error=1 "${build_dir}/tests/test_sharded"
  # Real scenarios across 8 workers: races between concurrent testbeds
  # (hidden statics, shared RNGs) would trip TSan here.
  scratch="$(mktemp -d)"
  (cd "${scratch}" && TSAN_OPTIONS=halt_on_error=1 \
    "${build_dir}/bench/bench_suite" --jobs 8 --seeds 2 \
    --filter latency > /dev/null)
  rm -rf "${scratch}"
  echo "thread-sanitizer gate OK: runner tests + parallel suite race-free"
else
  build_dir="${1:-${repo_root}/build}"
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}"
  ctest --test-dir "${build_dir}" -j "${jobs}" --output-on-failure

  # Every gate below runs even when an earlier one fails: run_gate runs a
  # gate in a subshell with errexit on (any failing command fails it),
  # records a failure and goes on. The summary at the end names each
  # failed gate, and the script exits non-zero if any failed.
  failed_gates=()
  run_gate() {
    local name="$1" status
    shift
    set +e
    (set -e; "$@")
    status=$?
    set -e
    if [[ "${status}" -ne 0 ]]; then failed_gates+=("${name}"); fi
  }

  # Stable-test-identity gate: a parameterized test whose parameter type
  # has no PrintTo gets gtest's raw byte dump in its ctest name, and those
  # bytes (pointers, padding) change from build to build, so by-name test
  # comparisons across builds break.
  test_identity_gate() {
    local test_names
    test_names="$(ctest --test-dir "${build_dir}" -N)"
    if grep 'byte object' <<< "${test_names}" >&2; then
      echo "test-identity gate FAILED: the ctest names above embed raw" \
        "parameter bytes; give the parameter type a PrintTo" >&2
      exit 1
    fi
    echo "test-identity gate OK: no ctest name embeds raw parameter bytes"
  }

  # Determinism gate: a parallel (--jobs 8) and a serial (--jobs 1) suite
  # run must both reproduce every committed golden byte-for-byte. Keys
  # under the reserved "wall." prefix (selfperf's wall-clock readings:
  # wall.events_per_sec_per_core and friends) are machine-load-dependent
  # by design and are stripped before diffing; everything else — including
  # the deterministic selfperf allocation counters — must match exactly.
  determinism_gate() {
    local goldens=(BENCH_latency.json BENCH_throughput.json
                   BENCH_faults.json BENCH_selfperf.json BENCH_fairness.json
                   BENCH_resilience.json BENCH_region.json
                   BENCH_controlplane.json BENCH_ops.json)
    local suite_jobs scratch golden
    for suite_jobs in 8 1; do
      scratch="$(mktemp -d)"
      (cd "${scratch}" && "${build_dir}/bench/bench_suite" \
        --jobs "${suite_jobs}" --seeds 3 --json > /dev/null)
      for golden in "${goldens[@]}"; do
        if ! diff <(grep -v '"wall\.' "${scratch}/${golden}") \
                  <(grep -v '"wall\.' "${repo_root}/${golden}") > /dev/null
        then
          echo "determinism gate FAILED (--jobs ${suite_jobs}):" \
            "bench_suite --json no longer matches ${golden}" >&2
          echo "scratch output kept at ${scratch}/${golden}" >&2
          exit 1
        fi
      done
      rm -rf "${scratch}"
    done
    echo "determinism gate OK: bench_suite --jobs 8 and --jobs 1 both" \
      "match all committed goldens"
  }

  # Selfperf regression gate: the simulator may not get slower. A serial,
  # uncontended selfperf pass (median of --repeat 3 to damp scheduler
  # noise) must stay within 10% of every committed
  # wall.events_per_sec_per_core — the perf trajectory the memory/layout
  # work bought is a guarded artifact, like the simulated goldens.
  selfperf_gate() {
    local scratch
    scratch="$(mktemp -d)"
    (cd "${scratch}" && "${build_dir}/bench/bench_suite" \
      --jobs 1 --filter selfperf --repeat 3 --json > /dev/null)
    extract_rate() {
      awk -F': ' '/"wall\.events_per_sec_per_core":/ {
        gsub(/[ ,]/, "", $2); print $2
      }' "$1"
    }
    if ! paste <(extract_rate "${scratch}/BENCH_selfperf.json") \
               <(extract_rate "${repo_root}/BENCH_selfperf.json") | \
      awk '{ if ($1 + 0 < 0.9 * ($2 + 0)) {
               printf "selfperf variant #%d: %g events/sec/core < 90%% of committed %g\n", NR, $1, $2
               fail = 1
             } }
           END { exit fail }' >&2
    then
      echo "selfperf regression gate FAILED: events_per_sec_per_core" \
        "dropped >10% below the committed BENCH_selfperf.json golden" >&2
      rm -rf "${scratch}"
      exit 1
    fi
    rm -rf "${scratch}"
    echo "selfperf regression gate OK: events_per_sec_per_core within 10%" \
      "of the committed golden on every variant"
  }

  # Region shard-determinism gate: the determinism gate above already pins
  # region_scale at --shards 1 (the suite default) for both --jobs values;
  # this run pins the other axis — a multi-shard region (8 partitions, 8
  # worker threads) must reproduce the committed golden byte-for-byte
  # outside the "wall." keys. It also asserts the partitioning still buys
  # parallelism: wall.speedup_bound (per-shard busy CPU-time sum/max — the
  # wall-clock ratio a machine with >= 8 free cores converges to, and
  # machine-load-independent because it is CPU time, not elapsed time)
  # must stay >= 3x.
  region_gate() {
    local scratch
    scratch="$(mktemp -d)"
    (cd "${scratch}" && "${build_dir}/bench/bench_suite" \
      --filter region_scale --shards 8 --json > /dev/null)
    if ! diff <(grep -v '"wall\.' "${scratch}/BENCH_region.json") \
              <(grep -v '"wall\.' "${repo_root}/BENCH_region.json") > /dev/null
    then
      echo "region determinism gate FAILED: --shards 8 output no longer" \
        "matches BENCH_region.json" >&2
      echo "scratch output kept at ${scratch}/BENCH_region.json" >&2
      exit 1
    fi
    if ! awk -F': ' '/"wall\.speedup_bound":/ {
           gsub(/[ ,]/, "", $2)
           if ($2 + 0 < 3.0) { printf "speedup_bound %g < 3.0\n", $2; fail = 1 }
         } END { exit fail }' "${scratch}/BENCH_region.json" >&2
    then
      echo "region speedup gate FAILED: the 8-shard partition's critical" \
        "path no longer supports a 3x parallel speedup" >&2
      rm -rf "${scratch}"
      exit 1
    fi
    rm -rf "${scratch}"
    echo "region determinism gate OK: --shards 8 matches the golden and" \
      "the partition supports >= 3x parallel speedup"
  }

  # Docs-consistency gate: EXPERIMENTS.md's scenario index (the table
  # between the scenario-index markers) and the suite's registered
  # scenario families must stay in lockstep — every documented scenario
  # must exist, and every runnable scenario must be documented.
  docs_gate() {
    local docs_families list_families
    docs_families="$(awk '/<!-- scenario-index:begin -->/ { in_table = 1; next }
                          /<!-- scenario-index:end -->/ { in_table = 0 }
                          in_table && /^\| `/ {
                            line = $0
                            sub(/^\| `/, "", line); sub(/`.*/, "", line)
                            print line
                          }' "${repo_root}/EXPERIMENTS.md" | sort -u)"
    list_families="$("${build_dir}/bench/bench_suite" --list | cut -d/ -f1 | sort -u)"
    if ! diff <(echo "${docs_families}") <(echo "${list_families}") >&2; then
      echo "docs-consistency gate FAILED: EXPERIMENTS.md scenario index" \
        "(< lines) and bench_suite --list families (> lines) have drifted" >&2
      exit 1
    fi
    echo "docs-consistency gate OK: EXPERIMENTS.md scenario index matches" \
      "bench_suite --list exactly"
  }

  # Fuzz-smoke gates: a fixed-seed differential campaign across all five
  # dataplanes must finish with zero oracle violations, and the JSON
  # report must be byte-identical between a parallel and a serial run
  # (scenario fan-out may never leak into results). `label` names the
  # gate, the rest are extra fuzz_mesh flags:
  #   (none)           the plain campaign;
  #   --resilience     the resilience chain armed (rate limit -> breaker ->
  #                    outlier ejection, salted per-scenario configs).
  #                    Rate-limit decisions are compared strictly across
  #                    planes; the resilience-window allowlist entry
  #                    absorbs transition races only;
  #   --control-plane  push_config / rotate_certs events armed, so every CI
  #                    run drives live config epochs through the modeled
  #                    propagation layer on all five planes. Post-push
  #                    steady state is compared strictly; the
  #                    config-propagation-window allowlist entry absorbs
  #                    mid-rollout skew only.
  fuzz_gate() {
    local label="$1" scratch
    shift
    scratch="$(mktemp -d)"
    "${build_dir}/src/fuzz/fuzz_mesh" --seed 1 --runs 200 --jobs 8 "$@" \
      --json "${scratch}/fuzz-par.json" > /dev/null
    "${build_dir}/src/fuzz/fuzz_mesh" --seed 1 --runs 200 --jobs 1 "$@" \
      --json "${scratch}/fuzz-ser.json" > /dev/null
    if ! diff -q "${scratch}/fuzz-par.json" "${scratch}/fuzz-ser.json"; then
      echo "${label} gate FAILED: report differs between --jobs 8 and" \
        "--jobs 1" >&2
      exit 1
    fi
    rm -rf "${scratch}"
    echo "${label} gate OK: 200 scenarios x 5 dataplanes, zero" \
      "violations, jobs-invariant report"
  }

  # Vacuous-success gates: drivers that would execute nothing must refuse
  # with a usage error (exit 2), never print a green summary.
  vacuous_success_gate() {
    local status=0
    "${build_dir}/src/fuzz/fuzz_mesh" --runs 0 > /dev/null 2>&1 || status=$?
    if [[ "${status}" -ne 2 ]]; then
      echo "vacuous-success gate FAILED: fuzz_mesh --runs 0 exited" \
        "${status}, want 2" >&2
      exit 1
    fi
    status=0
    "${build_dir}/bench/bench_suite" --filter no-such-scenario \
      > /dev/null 2>&1 || status=$?
    if [[ "${status}" -ne 2 ]]; then
      echo "vacuous-success gate FAILED: zero-match --filter exited" \
        "${status}, want 2" >&2
      exit 1
    fi
    status=0
    "${build_dir}/bench/bench_suite" --shards not-a-number \
      > /dev/null 2>&1 || status=$?
    if [[ "${status}" -ne 2 ]]; then
      echo "vacuous-success gate FAILED: non-numeric --shards exited" \
        "${status}, want 2" >&2
      exit 1
    fi
    echo "vacuous-success gate OK: empty fuzz campaigns and zero-match" \
      "bench filters are refused"
  }

  # Trace-export gate: both sampled-trace exporters (fuzzer scenario-0
  # re-run and the bench suite's noisy_neighbor scenario) must emit Chrome
  # trace-event JSON that passes the independent slice-tiling validator.
  # fuzz_mesh --trace-out validates internally before writing; the bench
  # file is re-validated through bench_suite --validate-trace.
  trace_export_gate() {
    local scratch
    scratch="$(mktemp -d)"
    "${build_dir}/src/fuzz/fuzz_mesh" --seed 1 --runs 1 \
      --trace-out "${scratch}/fuzz-trace.json" > /dev/null
    (cd "${scratch}" && "${build_dir}/bench/bench_suite" \
      --filter noisy_neighbor --trace-out "${scratch}/bench-trace.json" \
      > /dev/null)
    "${build_dir}/bench/bench_suite" \
      --validate-trace "${scratch}/fuzz-trace.json" > /dev/null
    "${build_dir}/bench/bench_suite" \
      --validate-trace "${scratch}/bench-trace.json" > /dev/null
    rm -rf "${scratch}"
    echo "trace-export gate OK: fuzz + bench trace exports validate as" \
      "Chrome trace-event JSON"
  }

  run_gate test-identity test_identity_gate
  run_gate determinism determinism_gate
  run_gate selfperf-regression selfperf_gate
  run_gate region-determinism region_gate
  run_gate docs-consistency docs_gate
  run_gate fuzz-smoke fuzz_gate fuzz-smoke
  run_gate resilience-fuzz-smoke fuzz_gate resilience-fuzz-smoke --resilience
  run_gate controlplane-fuzz-smoke fuzz_gate controlplane-fuzz-smoke \
    --control-plane
  run_gate vacuous-success vacuous_success_gate
  run_gate trace-export trace_export_gate

  if [[ "${#failed_gates[@]}" -gt 0 ]]; then
    for gate in "${failed_gates[@]}"; do
      echo "check.sh: gate FAILED: ${gate}" >&2
    done
    exit 1
  fi
  echo "check.sh: all gates OK"
fi
