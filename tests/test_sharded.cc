// Shard-boundary edges of the partitioned simulation mode (DESIGN.md §15):
// conservative-window validation, horizon-exact delivery, the single-shard
// ≡ legacy-EventLoop equivalence, partition invariance of results and
// engine counters, and the threaded round runner against the serial
// reference (this file is also the TSan target for the shard barrier —
// see scripts/check.sh --sanitize=thread).
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/region.h"
#include "k8s/region.h"
#include "runner/shard_exec.h"
#include "sim/event_loop.h"
#include "sim/shard.h"
#include "sim/time.h"

namespace canal {
namespace {

constexpr sim::Duration kLookahead = sim::microseconds(100);

// ---------------------------------------------------------------------------
// Validation

TEST(ShardedSim, RejectsNonPositiveLookahead) {
  EXPECT_THROW(sim::ShardedSim({0, 1}, 0), std::invalid_argument);
  EXPECT_THROW(sim::ShardedSim({0, 1}, -1), std::invalid_argument);
}

TEST(ShardedSim, RejectsEmptyAndNonDenseMappings) {
  EXPECT_THROW(sim::ShardedSim({}, kLookahead), std::invalid_argument);
  // Shard 1 hosts no domain.
  EXPECT_THROW(sim::ShardedSim({0, 2}, kLookahead), std::invalid_argument);
}

TEST(ShardedSim, SendRejectsSelfAndSubLookaheadLatency) {
  sim::ShardedSim sim({0, 1}, kLookahead);
  sim::EventLoop& loop = sim.domain_loop(0);
  loop.post_at(0, [&] {
    EXPECT_THROW(sim.send(0, 0, kLookahead, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.send(0, 1, kLookahead - 1, [] {}),
                 std::invalid_argument);
    sim.send(0, 1, kLookahead, [] {});  // exactly at the horizon: legal
  });
  const sim::ShardedSim::Stats stats = sim.run();
  EXPECT_EQ(stats.messages, 1u);
}

// ---------------------------------------------------------------------------
// Horizon-exact delivery: a message whose latency equals the lookahead
// lands exactly on the next window's start and must run there, ordered
// after everything the destination already scheduled for that instant.

TEST(ShardedSim, HorizonExactMessageRunsInNextWindow) {
  sim::ShardedSim sim({0, 1}, kLookahead);
  std::vector<std::string> dst_log;
  // Destination's local event at exactly t = lookahead, scheduled before
  // the run: it carries an earlier loop sequence number than the message
  // (delivered at the barrier), so it must run first.
  sim.domain_loop(1).post_at(kLookahead, [&] { dst_log.push_back("local"); });
  sim.domain_loop(0).post_at(0, [&] {
    sim.send(0, 1, kLookahead, [&] {
      dst_log.push_back("message@" +
                        std::to_string(sim.domain_loop(1).now()));
    });
  });
  const sim::ShardedSim::Stats stats = sim.run();
  ASSERT_EQ(dst_log.size(), 2u);
  EXPECT_EQ(dst_log[0], "local");
  EXPECT_EQ(dst_log[1], "message@" + std::to_string(kLookahead));
  EXPECT_EQ(stats.messages, 1u);
}

// ---------------------------------------------------------------------------
// Single-shard mode ≡ legacy EventLoop, byte for byte: the same workload
// replayed on a plain loop and on a one-domain ShardedSim must produce the
// identical execution trace — windowed run_until slicing may not reorder
// or drop anything.

void local_workload(sim::EventLoop& loop, std::vector<std::string>& log) {
  for (int i = 0; i < 20; ++i) {
    const auto when = static_cast<sim::TimePoint>(i) * (kLookahead / 3);
    loop.post_at(when, [&log, &loop, i] {
      log.push_back("e" + std::to_string(i) + "@" +
                    std::to_string(loop.now()));
      if (i % 3 == 0) {
        // Same-timestamp continuation: exercises the loop's FIFO bucket
        // across window boundaries.
        loop.post_at(loop.now(), [&log, &loop, i] {
          log.push_back("c" + std::to_string(i) + "@" +
                        std::to_string(loop.now()));
        });
      }
    });
  }
}

TEST(ShardedSim, SingleShardMatchesLegacyEventLoopByteForByte) {
  std::vector<std::string> legacy_log;
  sim::EventLoop legacy;
  local_workload(legacy, legacy_log);
  const std::size_t legacy_events = legacy.run();

  std::vector<std::string> sharded_log;
  sim::ShardedSim sim({0}, kLookahead);
  local_workload(sim.domain_loop(0), sharded_log);
  const sim::ShardedSim::Stats stats = sim.run();

  EXPECT_EQ(sharded_log, legacy_log);
  EXPECT_EQ(stats.events, legacy_events);
  EXPECT_EQ(stats.messages, 0u);
}

// ---------------------------------------------------------------------------
// Partition invariance: one logical workload with deliberate
// same-timestamp collisions (local ticks and inbound messages at the same
// instant) must produce identical per-domain traces and identical engine
// counters however the domains are partitioned, and on the threaded
// runner.

struct RingWorkload {
  explicit RingWorkload(std::vector<std::size_t> partition)
      : sim(std::move(partition), kLookahead), logs(sim.domains()) {
    const std::size_t domains = sim.domains();
    for (std::size_t d = 0; d < domains; ++d) {
      for (int i = 0; i < 8; ++i) {
        const auto when = static_cast<sim::TimePoint>(i) * kLookahead;
        sim.domain_loop(d).post_at(when, [this, d, i] {
          tick(d, i);
        });
      }
    }
  }

  void tick(std::size_t d, int i) {
    sim::EventLoop& loop = sim.domain_loop(d);
    logs[d].push_back("tick" + std::to_string(i) + "@" +
                      std::to_string(loop.now()));
    // Message to the ring neighbour, latency exactly one lookahead: it
    // arrives dead on the neighbour's tick i+1 — a cross-domain
    // same-timestamp collision whose resolution must not depend on
    // whether the two domains share a shard.
    const std::size_t dst = (d + 1) % sim.domains();
    sim.send(d, dst, kLookahead, [this, d, dst] {
      logs[dst].push_back("from" + std::to_string(d) + "@" +
                          std::to_string(sim.domain_loop(dst).now()));
    });
  }

  sim::ShardedSim sim;
  std::vector<std::vector<std::string>> logs;
};

TEST(ShardedSim, ResultsAreInvariantAcrossPartitionings) {
  RingWorkload reference({0, 0, 0, 0});
  const sim::ShardedSim::Stats ref_stats = reference.sim.run();
  EXPECT_EQ(ref_stats.messages, 4u * 8u);
  EXPECT_GT(ref_stats.rounds, 0u);

  const std::vector<std::vector<std::size_t>> partitions = {
      {0, 0, 1, 1}, {0, 1, 1, 0}, {0, 1, 2, 3}};
  for (const auto& partition : partitions) {
    RingWorkload other(partition);
    const sim::ShardedSim::Stats stats = other.sim.run();
    EXPECT_EQ(other.logs, reference.logs);
    EXPECT_EQ(stats.events, ref_stats.events);
    EXPECT_EQ(stats.rounds, ref_stats.rounds);
    EXPECT_EQ(stats.messages, ref_stats.messages);
  }
}

TEST(ShardedSim, PoolRunnerMatchesSerialRunner) {
  RingWorkload serial({0, 1, 2, 3});
  const sim::ShardedSim::Stats serial_stats = serial.sim.run();

  RingWorkload threaded({0, 1, 2, 3});
  runner::PoolShardRunner pool(4);
  const sim::ShardedSim::Stats pool_stats = threaded.sim.run(&pool);

  EXPECT_EQ(threaded.logs, serial.logs);
  EXPECT_EQ(pool_stats.events, serial_stats.events);
  EXPECT_EQ(pool_stats.rounds, serial_stats.rounds);
  EXPECT_EQ(pool_stats.messages, serial_stats.messages);
}

// ---------------------------------------------------------------------------
// Topology partitioning (k8s::partition_region / cross_shard_lookahead)

TEST(RegionPartition, ContiguousBlocksAndClamping) {
  EXPECT_EQ(k8s::partition_region(8, 2),
            (std::vector<std::size_t>{0, 0, 0, 0, 1, 1, 1, 1}));
  EXPECT_EQ(k8s::partition_region(3, 8),
            (std::vector<std::size_t>{0, 1, 2}));  // shards clamp to domains
  EXPECT_EQ(k8s::partition_region(4, 0),
            (std::vector<std::size_t>{0, 0, 0, 0}));  // 0 clamps to 1
  EXPECT_THROW(k8s::partition_region(0, 2), std::invalid_argument);
}

TEST(RegionPartition, LookaheadIsMinimumCrossShardLatency) {
  const sim::Duration fast = sim::microseconds(50);
  const sim::Duration slow = sim::milliseconds(1);
  std::vector<std::vector<sim::Duration>> latency = {
      {0, fast, slow}, {fast, 0, slow}, {slow, slow, 0}};
  // Domains 0/1 (the fast pair) co-located: only slow links cross.
  EXPECT_EQ(k8s::cross_shard_lookahead(latency, {0, 0, 1}), slow);
  // Splitting the fast pair drops the lookahead to the fast latency.
  EXPECT_EQ(k8s::cross_shard_lookahead(latency, {0, 1, 1}), fast);
  // Single shard: nothing crosses.
  EXPECT_EQ(k8s::cross_shard_lookahead(latency, {0, 0, 0}), 0);
}

TEST(RegionPartition, ZeroLatencyLinksMustStayIntraShard) {
  std::vector<std::vector<sim::Duration>> latency = {
      {0, 0, sim::milliseconds(1)},
      {0, 0, sim::milliseconds(1)},
      {sim::milliseconds(1), sim::milliseconds(1), 0}};
  // Zero-latency pair 0/1 on one shard: fine.
  EXPECT_EQ(k8s::cross_shard_lookahead(latency, {0, 0, 1}),
            sim::milliseconds(1));
  // Splitting it would force zero-width windows: rejected.
  EXPECT_THROW((void)k8s::cross_shard_lookahead(latency, {0, 1, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)k8s::cross_shard_lookahead(latency, {0, 1, 2}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tiny-region determinism smoke: the full bench harness (per-AZ canal
// testbeds, cross-AZ channels, Table 3 tenants) at toy scale must produce
// identical deterministic results at 1 and 2 shards, serial and threaded.

bench::RegionOptions tiny_region() {
  bench::RegionOptions opts;
  opts.azs = 2;
  opts.nodes_per_az = 6;
  opts.services_per_az = 4;
  opts.pods_per_service = 3;
  opts.gateway_backends = 2;
  opts.gateway.backends_per_service_local = 2;
  opts.aggregate_rps = 20'000.0;
  opts.duration = sim::milliseconds(50);
  opts.generators_per_az = 8;
  opts.tenants = 10;
  return opts;
}

TEST(RegionScale, TinyRegionIsShardCountInvariant) {
  bench::RegionOptions opts = tiny_region();
  opts.shards = 1;
  const bench::RegionRun one = bench::run_region(opts);
  EXPECT_GT(one.sent, 0u);
  EXPECT_GT(one.engine.messages, 0u);

  opts.shards = 2;
  runner::PoolShardRunner pool(2);
  const bench::RegionRun two = bench::run_region(opts, &pool);

  EXPECT_EQ(two.sent, one.sent);
  EXPECT_EQ(two.ok, one.ok);
  EXPECT_EQ(two.engine.events, one.engine.events);
  EXPECT_EQ(two.engine.rounds, one.engine.rounds);
  EXPECT_EQ(two.engine.messages, one.engine.messages);
  EXPECT_EQ(two.lookahead, one.lookahead);
  // Histograms retain samples in completion order: sample-for-sample
  // equality is the byte-for-byte form of latency-distribution equality.
  ASSERT_EQ(two.intra_latency_us.count(), one.intra_latency_us.count());
  for (std::size_t i = 0; i < one.intra_latency_us.count(); ++i) {
    ASSERT_EQ(two.intra_latency_us.samples()[i],
              one.intra_latency_us.samples()[i]);
  }
  ASSERT_EQ(two.cross_latency_us.count(), one.cross_latency_us.count());
  for (std::size_t i = 0; i < one.cross_latency_us.count(); ++i) {
    ASSERT_EQ(two.cross_latency_us.samples()[i],
              one.cross_latency_us.samples()[i]);
  }
}

}  // namespace
}  // namespace canal
