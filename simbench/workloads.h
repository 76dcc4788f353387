// The four benchmark workloads and the per-layer metric catalogue.
//
// A repetition builds a fresh world, schedules the seed's generated inputs,
// drains the simulation and reads the results back. Simulated load is open
// loop on the simulated clock. The world itself never depends on the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace.h"
#include "world.h"

namespace simbench {

struct WorkloadSpec {
  std::string_view name;
  std::string_view why;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
[[nodiscard]] bool known_workload(std::string_view name);

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Every per-layer metric a traced run reports, on every workload (0 where
/// the layer is not exercised).
[[nodiscard]] const std::vector<MetricDef>& layer_metrics();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Shard threads for region_sharded (ignored elsewhere).
  std::size_t shards = 1;
  /// Multiplies every simulated duration (tests shrink the workloads).
  double scale = 1.0;
  /// Build the world and schedule the inputs, then stop: a set-up sample.
  bool setup_only = false;
};

/// One generated request source; indices refer to the world's services and
/// each service's endpoint list.
struct FlowSpec {
  std::uint32_t az = 0;
  std::uint32_t client_service = 0;
  std::uint32_t client_pod = 0;
  std::uint32_t dst_az = 0;  ///< != az for a cross-AZ flow
  std::uint32_t dst_service = 0;
  std::uint32_t ingress_service = 0;  ///< cross-AZ entry pod in dst_az
  std::uint32_t ingress_pod = 0;
  std::uint32_t tenant = 0;    ///< 0 = the client pod's own tenant
  std::uint16_t src_port = 0;  ///< 0 = fresh connection per request
  sim::Duration start = 0;
};

/// The seed's generated inputs for `config.workload`.
[[nodiscard]] std::vector<FlowSpec> make_inputs(const RunConfig& config);
[[nodiscard]] std::uint64_t inputs_fingerprint(
    const std::vector<FlowSpec>& inputs);
/// Topology fingerprint of the workload's (first) world as built for
/// `config`: pods, addresses, nodes, services and gateway placement.
[[nodiscard]] std::uint64_t world_fingerprint(const RunConfig& config);

struct Rep {
  double setup_s = 0.0;  ///< rep start to the first simulated event
  double run_s = 0.0;    ///< wall time of the drain
  double cpu_s = 0.0;    ///< process CPU time of the drain
  /// The drain cut at fixed simulated points (SegmentClock); the same
  /// segments in every repetition of a run.
  std::vector<Segment> segments;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< simulated requests that did not succeed
  std::uint64_t violations = 0;  ///< conservation violations
  Digest digest;
  /// Per-layer metrics (traced reps only), in layer_metrics() order.
  std::vector<std::pair<std::string, double>> layers;
};

/// Runs one repetition. `spans` null = untraced: no spans, no unit-cost
/// replays, plain shard runner.
[[nodiscard]] Rep run_rep(const RunConfig& config, SpanRecorder* spans);

/// A region-shaped world shrunk to tens of milliseconds, run at 1 shard and
/// at `shards` shards. The two digests must be equal.
[[nodiscard]] std::pair<Digest, Digest> region_shard_probe(
    std::uint64_t seed, std::size_t shards);

}  // namespace simbench
