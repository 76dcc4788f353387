// Heavier parameterized property sweeps across modules: HTTP parser
// round-trip fuzzing with deterministic request generators, route-table
// weighted-split accuracy across weight mixes, shuffle-shard isolation
// across pool shapes, session-table expiry against a naive reference, and
// record-channel stream properties.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>
#include <string>

#include "canal/sharding.h"
#include "crypto/mac.h"
#include "crypto/record.h"
#include "http/parser.h"
#include "http/route.h"
#include "proxy/session_table.h"
#include "sim/rng.h"

namespace canal {
namespace {

// ---- HTTP parser: serialize/parse round trip under random messages ---------

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RoundTripsRandomRequests) {
  sim::Rng rng(GetParam());
  const http::Method methods[] = {http::Method::kGet, http::Method::kPost,
                                  http::Method::kPut, http::Method::kDelete,
                                  http::Method::kPatch};
  for (int trial = 0; trial < 50; ++trial) {
    http::Request original;
    original.method =
        methods[rng.uniform_int(0, static_cast<std::int64_t>(
                                       std::size(methods)) -
                                       1)];
    original.path = "/p";
    const auto segments = rng.uniform_int(0, 5);
    for (std::int64_t s = 0; s < segments; ++s) {
      original.path += "/seg" + std::to_string(rng.uniform_int(0, 999));
    }
    if (rng.chance(0.4)) original.path += "?k=" + std::to_string(trial);
    const auto headers = rng.uniform_int(0, 8);
    for (std::int64_t h = 0; h < headers; ++h) {
      original.headers.add("X-H" + std::to_string(h),
                           std::string(static_cast<std::size_t>(
                                           rng.uniform_int(1, 40)),
                                       'v'));
    }
    if (rng.chance(0.6)) {
      original.body.assign(
          static_cast<std::size_t>(rng.uniform_int(0, 2000)), 'b');
      original.headers.set("Content-Length",
                           std::to_string(original.body.size()));
    }

    // Feed in random chunk sizes.
    const std::string wire = original.serialize();
    http::RequestParser parser;
    std::size_t offset = 0;
    http::ParseStatus status = http::ParseStatus::kNeedMore;
    while (offset < wire.size()) {
      const auto chunk = static_cast<std::size_t>(
          rng.uniform_int(1, 64));
      const auto n = std::min(chunk, wire.size() - offset);
      status = parser.feed(std::string_view(wire).substr(offset, n));
      offset += n;
    }
    ASSERT_EQ(status, http::ParseStatus::kComplete) << "trial " << trial;
    EXPECT_EQ(parser.request().method, original.method);
    EXPECT_EQ(parser.request().path, original.path);
    EXPECT_EQ(parser.request().body, original.body);
    EXPECT_EQ(parser.request().headers.size(), original.headers.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(3u, 5u, 8u, 13u, 21u));

// ---- Weighted splits: accuracy across weight mixes --------------------------

struct SplitCase {
  std::uint32_t stable;
  std::uint32_t canary;
};

// PrintTo and a name generator keep gtest's raw byte dump of the struct
// out of the ctest names (ShardShape's includes padding bytes).
void PrintTo(const SplitCase& c, std::ostream* os) {
  *os << c.stable << ':' << c.canary;
}

class SplitSweep : public ::testing::TestWithParam<SplitCase> {};

TEST_P(SplitSweep, FractionConvergesToWeights) {
  const auto& [stable, canary] = GetParam();
  http::RouteTable table;
  http::RouteRule rule;
  rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  rule.match.path = "/";
  rule.action.clusters = {{"stable", stable}, {"canary", canary}};
  table.add_rule(std::move(rule));

  sim::Rng rng(5001);
  int canary_hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    http::Request req;
    req.path = "/x";
    const auto result = table.resolve(req, rng.uniform());
    ASSERT_TRUE(result.has_value());
    if (result->cluster == "canary") ++canary_hits;
  }
  const double expected =
      static_cast<double>(canary) / static_cast<double>(stable + canary);
  EXPECT_NEAR(canary_hits / static_cast<double>(kN), expected,
              3.5 * std::sqrt(expected * (1 - expected) / kN) + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Weights, SplitSweep,
                         ::testing::Values(SplitCase{99, 1}, SplitCase{95, 5},
                                           SplitCase{80, 20},
                                           SplitCase{50, 50},
                                           SplitCase{1, 99}),
                         [](const auto& info) {
                           return "stable" +
                                  std::to_string(info.param.stable) +
                                  "_canary" +
                                  std::to_string(info.param.canary);
                         });

// ---- Shuffle sharding: isolation across pool shapes --------------------------

struct ShardShape {
  std::uint32_t pool;
  std::size_t shard;
  int services;
};

void PrintTo(const ShardShape& s, std::ostream* os) {
  *os << '{' << s.pool << ", " << s.shard << ", " << s.services << '}';
}

class ShardSweep : public ::testing::TestWithParam<ShardShape> {};

TEST_P(ShardSweep, AllAssignmentsUniqueAndIsolated) {
  const auto& [pool_size, shard, services] = GetParam();
  core::ShuffleShardAssigner assigner(shard, sim::Rng(6007));
  std::vector<net::BackendId> pool;
  for (std::uint32_t i = 1; i <= pool_size; ++i) {
    pool.push_back(static_cast<net::BackendId>(i));
  }
  assigner.set_pool(pool);
  int assigned = 0;
  for (int s = 1; s <= services; ++s) {
    if (assigner.assign(static_cast<net::ServiceId>(s))) ++assigned;
  }
  EXPECT_EQ(assigned, services);
  for (int s = 1; s <= services; ++s) {
    EXPECT_TRUE(assigner.isolated(static_cast<net::ServiceId>(s)));
  }
  EXPECT_LT(assigner.max_pairwise_overlap(), shard);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShardSweep,
                         ::testing::Values(ShardShape{8, 2, 20},
                                           ShardShape{12, 3, 60},
                                           ShardShape{20, 4, 150},
                                           ShardShape{30, 3, 300}),
                         [](const auto& info) {
                           return "pool" + std::to_string(info.param.pool) +
                                  "_shard" +
                                  std::to_string(info.param.shard) +
                                  "_svc" +
                                  std::to_string(info.param.services);
                         });

// ---- Session table: idle-floor expiry matches a naive scan -----------------

// Random interleavings of every mutating call, with time moving forward
// (sometimes not at all) and the idle timeout varying per sweep, checked
// after each step against a reference that rescans a plain map. The idle
// floor may skip an expiry scan only when the scan would drop nothing.
class SessionTableSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionTableSweep, ExpiryMatchesNaiveScan) {
  struct Ref {
    net::ServiceId service;
    sim::TimePoint created;
    sim::TimePoint last_active;
  };
  constexpr std::size_t kCapacity = 12;
  constexpr std::int64_t kPorts = 16;  // more flows than slots: rejections
  const auto tuple_of = [](std::int64_t port) {
    return net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1),
                          net::Ipv4Addr(10, 0, 1, 1),
                          static_cast<std::uint16_t>(1000 + port), 443,
                          net::Protocol::kTcp};
  };
  sim::Rng rng(GetParam());
  proxy::SessionTable table(kCapacity);
  std::map<std::int64_t, Ref> ref;
  sim::TimePoint now = 0;
  for (int step = 0; step < 3000; ++step) {
    now += sim::seconds(static_cast<double>(rng.uniform_int(0, 4)));
    const std::int64_t port = rng.uniform_int(0, kPorts - 1);
    const auto service =
        static_cast<net::ServiceId>(rng.uniform_int(1, 3));
    switch (rng.uniform_int(0, 6)) {
      case 0:
      case 1: {
        const bool ok = ref.size() < kCapacity;
        if (ok) ref[port] = Ref{service, now, now};
        ASSERT_EQ(table.insert(tuple_of(port), service, now), ok) << step;
        break;
      }
      case 2: {
        const auto it = ref.find(port);
        if (it != ref.end()) it->second.last_active = now;
        const proxy::Session* touched = table.touch(tuple_of(port), now);
        ASSERT_EQ(touched != nullptr, it != ref.end()) << step;
        break;
      }
      case 3: {
        const bool erased = ref.erase(port) > 0;
        ASSERT_EQ(table.remove(tuple_of(port)), erased) << step;
        break;
      }
      case 4: {
        std::size_t dropped = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if (it->second.service == service) {
            it = ref.erase(it);
            ++dropped;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(table.remove_for(service), dropped) << step;
        break;
      }
      case 5: {
        if (rng.uniform_int(0, 19) != 0) break;  // rare: keep tables full
        const std::size_t dropped = ref.size();
        ref.clear();
        ASSERT_EQ(table.clear(), dropped) << step;
        break;
      }
      default: {
        const sim::Duration timeout =
            sim::seconds(static_cast<double>(rng.uniform_int(0, 40)));
        std::size_t dropped = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if (now - it->second.last_active > timeout) {
            it = ref.erase(it);
            ++dropped;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(table.expire_idle(now, timeout), dropped) << step;
        break;
      }
    }
    ASSERT_EQ(table.size(), ref.size()) << step;
    for (std::int64_t p = 0; p < kPorts; ++p) {
      const proxy::Session* found = table.find(tuple_of(p));
      const auto it = ref.find(p);
      ASSERT_EQ(found != nullptr, it != ref.end()) << step << " port " << p;
      if (found == nullptr) continue;
      EXPECT_EQ(found->service, it->second.service);
      EXPECT_EQ(found->created, it->second.created);
      EXPECT_EQ(found->last_active, it->second.last_active);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionTableSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 0xC0FFEEu));

// ---- Record channel: long streams stay consistent ----------------------------

TEST(RecordStream, ThousandRecordsInOrder) {
  const crypto::Key256 key = crypto::derive_key("stream", "k");
  crypto::RecordChannel tx(key), rx(key);
  for (int i = 0; i < 1000; ++i) {
    const std::string message = "msg-" + std::to_string(i);
    const auto opened = rx.open(tx.seal(message));
    ASSERT_TRUE(opened.has_value()) << i;
    ASSERT_EQ(*opened, message);
  }
  EXPECT_EQ(tx.sealed_records(), 1000u);
}

TEST(RecordStream, OutOfOrderRejected) {
  const crypto::Key256 key = crypto::derive_key("stream", "k2");
  crypto::RecordChannel tx(key), rx(key);
  const auto r0 = tx.seal("zero");
  const auto r1 = tx.seal("one");
  EXPECT_FALSE(rx.open(r1).has_value());  // skipped a sequence number
  EXPECT_TRUE(rx.open(r0).has_value());
  EXPECT_TRUE(rx.open(r1).has_value());
}

}  // namespace
}  // namespace canal
