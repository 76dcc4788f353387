// Tests of the benchmark itself: its shard-runner wrapper, its
// conservation check, its input generation and its determinism.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runner/shard_exec.h"
#include "sim/shard.h"
#include "trace.h"
#include "workloads.h"
#include "world.h"

namespace simbench {
namespace {

// --- TimedShardRunner -------------------------------------------------------

/// Three domains passing a token around a ring; each records what it saw.
std::vector<std::vector<std::int64_t>> run_ring(sim::ShardRunner& runner) {
  sim::ShardedSim sharded({0, 1, 2}, sim::microseconds(100));
  std::vector<std::vector<std::int64_t>> seen(3);
  struct Hop {
    sim::ShardedSim* sharded;
    std::vector<std::vector<std::int64_t>>* seen;
    void operator()(std::size_t domain, int left) const {
      (*seen)[domain].push_back(sharded->domain_loop(domain).now());
      if (left == 0) return;
      const std::size_t next = (domain + 1) % 3;
      const Hop hop = *this;
      sharded->send(domain, next, sim::microseconds(100 + 7 * left),
                    [hop, next, left] { hop(next, left - 1); });
    }
  };
  const Hop hop{&sharded, &seen};
  for (std::size_t d = 0; d < 3; ++d) {
    sharded.domain_loop(d).post_at(
        static_cast<sim::TimePoint>(d) * 13, [hop, d] { hop(d, 40); });
    for (int i = 0; i < 20; ++i) {
      sharded.domain_loop(d).post_at(
          static_cast<sim::TimePoint>(i) * sim::microseconds(37),
          [&seen, &sharded, d] {
            seen[d].push_back(-sharded.domain_loop(d).now());
          });
    }
  }
  const sim::ShardedSim::Stats stats = sharded.run(&runner);
  seen.push_back({static_cast<std::int64_t>(stats.events),
                  static_cast<std::int64_t>(stats.rounds),
                  static_cast<std::int64_t>(stats.messages)});
  return seen;
}

TEST(TimedShardRunner, LeavesShardedResultsIdenticalToPoolRunner) {
  canal::runner::PoolShardRunner plain(3);
  const auto reference = run_ring(plain);

  canal::runner::PoolShardRunner inner(3);
  SpanRecorder spans;
  TimedShardRunner timed(inner, &spans);
  EXPECT_EQ(run_ring(timed), reference);
  EXPECT_EQ(timed.totals().rounds,
            static_cast<std::uint64_t>(reference.back()[1]));
  EXPECT_EQ(timed.totals().round_us.size(), timed.totals().rounds);
  // One round span plus one task span per shard, every round.
  EXPECT_EQ(spans.spans().size(), timed.totals().rounds * 4);
}

TEST(SegmentedShardRunner, LeavesShardedResultsIdenticalToPoolRunner) {
  canal::runner::PoolShardRunner plain(3);
  const auto reference = run_ring(plain);

  canal::runner::PoolShardRunner inner(3);
  SegmentClock clock;
  SegmentedShardRunner segmented(inner, clock);
  clock.start();
  EXPECT_EQ(run_ring(segmented), reference);
  clock.cut();
  // The lead-in before the first round, then one segment per round with a
  // lane per shard.
  const auto rounds = static_cast<std::size_t>(reference.back()[1]);
  ASSERT_EQ(clock.segments().size(), rounds + 1);
  EXPECT_TRUE(clock.segments().front().lane_wall_s.empty());
  for (std::size_t k = 1; k < clock.segments().size(); ++k) {
    EXPECT_EQ(clock.segments()[k].lane_wall_s.size(), 3u);
    EXPECT_EQ(clock.segments()[k].lane_cpu_s.size(), 3u);
  }
}

TEST(SegmentClock, TracedAndUntracedRepsDrainInTheSameSegments) {
  for (const char* workload : {"conn_churn", "region_sharded"}) {
    RunConfig config;
    config.workload = workload;
    config.shards = 2;
    config.scale = 0.05;
    const Rep untraced = run_rep(config, nullptr);
    SpanRecorder spans;
    const Rep traced = run_rep(config, &spans);
    ASSERT_GT(untraced.segments.size(), 1u) << workload;
    ASSERT_EQ(untraced.segments.size(), traced.segments.size()) << workload;
    for (std::size_t k = 0; k < untraced.segments.size(); ++k) {
      EXPECT_EQ(untraced.segments[k].lane_wall_s.size(),
                traced.segments[k].lane_wall_s.size())
          << workload << " segment " << k;
    }
  }
}

TEST(TimedShardRunner, TracedRegionMatchesUntracedDigest) {
  RunConfig config;
  config.workload = "region_sharded";
  config.shards = 3;
  config.scale = 0.05;
  const Rep untraced = run_rep(config, nullptr);
  SpanRecorder spans;
  const Rep traced = run_rep(config, &spans);
  EXPECT_EQ(traced.digest, untraced.digest) << traced.digest.str() << " vs "
                                            << untraced.digest.str();
  EXPECT_GT(untraced.digest.sent, 0u);
  EXPECT_EQ(untraced.violations, 0u);
}

// --- conservation -----------------------------------------------------------

/// Forwards to a real dataplane but tampers with one completion.
class TamperingPlane final : public mesh::MeshDataplane {
 public:
  enum class Mode { kDrop, kDuplicate };
  TamperingPlane(mesh::MeshDataplane& inner, std::uint64_t victim, Mode mode)
      : inner_(inner), victim_(victim), mode_(mode) {}

  std::string_view name() const noexcept override { return "tampering"; }
  void send_request(const mesh::RequestOptions& opts,
                    mesh::RequestCallback done) override {
    const bool victim = ++sent_ == victim_;
    const Mode mode = mode_;
    inner_.send_request(opts, [done = std::move(done), victim,
                               mode](mesh::RequestResult r) {
      if (victim && mode == Mode::kDrop) return;
      if (victim && mode == Mode::kDuplicate) done(r);
      done(std::move(r));
    });
  }
  sim::EventLoop& event_loop() noexcept override {
    return inner_.event_loop();
  }
  std::vector<k8s::ConfigTarget> routing_update_targets() const override {
    return {};
  }
  std::vector<k8s::ConfigTarget> pod_create_targets(
      const std::vector<k8s::Pod*>&) const override {
    return {};
  }
  double user_cpu_core_seconds() const override { return 0.0; }
  double total_cpu_core_seconds() const override { return 0.0; }
  std::size_t proxy_count() const override { return 0; }

 private:
  mesh::MeshDataplane& inner_;
  std::uint64_t victim_;
  Mode mode_;
  std::uint64_t sent_ = 0;
};

Ledger drive(std::uint64_t victim, TamperingPlane::Mode mode) {
  World world{WorldOptions{}};
  world.build(Plane::kCanal);
  TamperingPlane plane(world.plane(Plane::kCanal), victim, mode);
  Ledger ledger;
  Flow flow;
  flow.mesh = &plane;
  flow.loop = &world.loop();
  flow.ledger = &ledger;
  flow.client = world.services().front()->endpoints.front();
  flow.dst_service = world.services().back()->id;
  flow.src_port = 41'000;
  flow.spacing = sim::milliseconds(2);
  flow.count = 200;
  start_flow(flow);
  world.loop().run();
  return ledger;
}

TEST(Conservation, CleanRunHasNoViolations) {
  const Ledger ledger = drive(0, TamperingPlane::Mode::kDrop);
  EXPECT_EQ(ledger.issued(), 200u);
  EXPECT_EQ(ledger.completed(), 200u);
  EXPECT_EQ(ledger.violations(), 0u);
}

TEST(Conservation, FiresOnPlantedDroppedCompletion) {
  const Ledger ledger = drive(57, TamperingPlane::Mode::kDrop);
  EXPECT_EQ(ledger.issued(), 200u);
  EXPECT_EQ(ledger.completed(), 199u);
  EXPECT_EQ(ledger.violations(), 1u);
  Ledger merged;
  merged.merge(ledger);
  EXPECT_EQ(merged.violations(), 1u) << "merging must keep the violation";
}

TEST(Conservation, FiresOnDuplicatedCompletion) {
  const Ledger ledger = drive(3, TamperingPlane::Mode::kDuplicate);
  EXPECT_EQ(ledger.completed(), 201u);
  EXPECT_EQ(ledger.violations(), 1u);
}

// --- inputs, world and determinism ------------------------------------------

TEST(Inputs, NewSeedChangesInputsButNotWorld) {
  for (const WorkloadSpec& spec : workload_specs()) {
    RunConfig a;
    a.workload = std::string(spec.name);
    a.seed = 1;
    RunConfig b = a;
    b.seed = 2;
    EXPECT_EQ(inputs_fingerprint(make_inputs(a)),
              inputs_fingerprint(make_inputs(a)))
        << spec.name;
    EXPECT_NE(inputs_fingerprint(make_inputs(a)),
              inputs_fingerprint(make_inputs(b)))
        << spec.name;
    EXPECT_EQ(make_inputs(a).size(), make_inputs(b).size()) << spec.name;
    EXPECT_EQ(world_fingerprint(a), world_fingerprint(b)) << spec.name;
  }
}

TEST(Determinism, SameSeedSameDigestOnEveryWorkload) {
  for (const WorkloadSpec& spec : workload_specs()) {
    RunConfig config;
    config.workload = std::string(spec.name);
    config.seed = 5;
    config.shards = 2;
    // idle_sessions flows send every 10 simulated minutes.
    config.scale = spec.name == "idle_sessions" ? 0.5 : 0.02;
    const Rep first = run_rep(config, nullptr);
    const Rep second = run_rep(config, nullptr);
    EXPECT_EQ(first.digest, second.digest) << spec.name;
    EXPECT_GT(first.attempted, 0u) << spec.name;
    EXPECT_EQ(first.failed, 0u) << spec.name;
    EXPECT_EQ(first.violations, 0u) << spec.name;
  }
}

TEST(Determinism, RegionDigestSameAtOneAndManyShards) {
  const auto [one, many] = region_shard_probe(3, 4);
  EXPECT_EQ(one, many) << one.str() << " vs " << many.str();
  EXPECT_GT(one.sent, 0u);
}

TEST(Layers, TracedRepReportsEveryCataloguedMetric) {
  RunConfig config;
  config.workload = "conn_churn";
  config.scale = 0.02;
  SpanRecorder spans;
  const Rep rep = run_rep(config, &spans);
  ASSERT_EQ(rep.layers.size(), layer_metrics().size());
  for (std::size_t i = 0; i < rep.layers.size(); ++i) {
    EXPECT_EQ(rep.layers[i].first, layer_metrics()[i].name);
  }
  EXPECT_FALSE(spans.spans().empty());
  const Rep untraced = run_rep(config, nullptr);
  EXPECT_TRUE(untraced.layers.empty());
  EXPECT_EQ(untraced.digest, rep.digest);
}

}  // namespace
}  // namespace simbench
