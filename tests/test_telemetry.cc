// Unit tests for telemetry: service stats, anomaly classification, RCA,
// bounded histograms, tenant fairness, trace sampling and export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/stats.h"
#include "telemetry/anomaly.h"
#include "telemetry/fairness.h"
#include "telemetry/hdr_histogram.h"
#include "telemetry/rca.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"
#include "telemetry/service_stats.h"
#include "telemetry/trace_export.h"

namespace canal::telemetry {
namespace {

constexpr auto S1 = static_cast<net::ServiceId>(1);
constexpr auto S2 = static_cast<net::ServiceId>(2);
constexpr auto S3 = static_cast<net::ServiceId>(3);

/// A backend-load series read at the analyzer's sample times.
std::vector<double> load_samples(const RootCauseAnalyzer& rca,
                                 const sim::TimeSeries& load,
                                 sim::TimePoint lo, sim::TimePoint hi) {
  std::vector<double> out;
  for (const sim::TimePoint t : rca.sample_times(lo, hi)) {
    out.push_back(load.value_at(t).value_or(0.0));
  }
  return out;
}

TEST(ServiceStats, RatesTrackEvents) {
  ServiceStats stats(sim::seconds(1));
  for (int i = 0; i < 100; ++i) {
    stats.on_request(sim::milliseconds(i * 10), i % 10 == 0, i % 2 == 0);
  }
  const auto now = sim::milliseconds(990);
  EXPECT_NEAR(stats.rps(now), 100.0, 5.0);
  EXPECT_NEAR(stats.new_session_rate(now), 10.0, 2.0);
  EXPECT_NEAR(stats.https_rate(now), 50.0, 5.0);
  EXPECT_EQ(stats.total_requests(), 100u);
}

TEST(ServiceStats, BulkRecording) {
  ServiceStats stats(sim::seconds(1));
  stats.on_requests(sim::milliseconds(500), 1000.0, 100.0, 300.0);
  EXPECT_NEAR(stats.rps(sim::milliseconds(600)), 1000.0, 1.0);
  EXPECT_NEAR(stats.new_session_rate(sim::milliseconds(600)), 100.0, 1.0);
}

TEST(BackendSnapshot, TopServicesOrdered) {
  BackendSnapshot snap;
  snap.service_rps[S1] = 10.0;
  snap.service_rps[S2] = 30.0;
  snap.service_rps[S3] = 20.0;
  const auto top = snap.top_services(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, S2);
  EXPECT_EQ(top[1].first, S3);
}

BackendSnapshot snapshot(double cpu, double rps, double new_sessions,
                         double occupancy = 0.1) {
  BackendSnapshot snap;
  snap.cpu_utilization = cpu;
  snap.total_rps = rps;
  snap.new_session_rate = new_sessions;
  snap.session_occupancy = occupancy;
  return snap;
}

TEST(Anomaly, NormalGrowth) {
  const auto before = snapshot(0.4, 1000, 100);
  const auto now = snapshot(0.8, 2500, 250);
  EXPECT_EQ(classify_backend_anomaly(before, now),
            AnomalyKind::kNormalGrowth);
}

TEST(Anomaly, SessionFloodAttack) {
  // §6.2 Case #1: sessions surge without a matching RPS increase.
  const auto before = snapshot(0.4, 1000, 100, 0.2);
  const auto now = snapshot(0.7, 1050, 5000, 0.85);
  EXPECT_EQ(classify_backend_anomaly(before, now),
            AnomalyKind::kSessionFlood);
}

TEST(Anomaly, ExpensiveQuery) {
  const auto before = snapshot(0.3, 1000, 100);
  const auto now = snapshot(0.9, 1020, 102);
  EXPECT_EQ(classify_backend_anomaly(before, now),
            AnomalyKind::kExpensiveQuery);
}

TEST(Anomaly, Undetermined) {
  const auto before = snapshot(0.5, 1000, 100);
  const auto now = snapshot(0.55, 1010, 101);
  EXPECT_EQ(classify_backend_anomaly(before, now),
            AnomalyKind::kUndetermined);
}

TEST(Anomaly, KindNames) {
  EXPECT_EQ(anomaly_kind_name(AnomalyKind::kSessionFlood), "session-flood");
  EXPECT_EQ(anomaly_kind_name(AnomalyKind::kNormalGrowth), "normal-growth");
}

TEST(InPhase, DetectsSynchronizedSeries) {
  sim::TimeSeries a, b, c;
  for (int i = 0; i <= 100; ++i) {
    const double phase = i / 100.0 * 6.28;
    a.record(sim::seconds(i), 100 + 50 * std::sin(phase));
    b.record(sim::seconds(i), 200 + 80 * std::sin(phase));      // in phase
    c.record(sim::seconds(i), 100 + 50 * std::sin(phase + 3.14));  // anti
  }
  EXPECT_TRUE(in_phase(a, b, sim::seconds(0), sim::seconds(100)));
  EXPECT_FALSE(in_phase(a, c, sim::seconds(0), sim::seconds(100)));
}

TEST(InPhase, MissingDataIsNotInPhase) {
  sim::TimeSeries a, empty;
  a.record(sim::seconds(1), 1.0);
  EXPECT_FALSE(in_phase(a, empty, sim::seconds(0), sim::seconds(10)));
}

TEST(Rca, PinpointsCorrelatedService) {
  sim::TimeSeries load;
  sim::TimeSeries rising, flat, small;
  for (int i = 0; i <= 60; ++i) {
    const auto t = sim::seconds(i);
    load.record(t, 0.3 + 0.01 * i);        // backend heating up
    rising.record(t, 1000.0 + 50.0 * i);   // the culprit
    flat.record(t, 800.0);                 // busy but steady
    small.record(t, 5.0);                  // tiny service
  }
  RootCauseAnalyzer rca;
  const auto suspects = rca.pinpoint(
      load_samples(rca, load, 0, sim::seconds(60)),
      {{S1, &rising}, {S2, &flat}, {S3, &small}}, sim::seconds(0),
      sim::seconds(60));
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects.front(), S1);
  // The flat service must not be blamed.
  EXPECT_EQ(std::find(suspects.begin(), suspects.end(), S2), suspects.end());
}

TEST(Rca, TopKLimitsCandidates) {
  sim::TimeSeries load;
  sim::TimeSeries rising_small;
  sim::TimeSeries big1, big2;
  for (int i = 0; i <= 60; ++i) {
    const auto t = sim::seconds(i);
    load.record(t, 0.3 + 0.01 * i);
    rising_small.record(t, 1.0 + 0.2 * i);  // correlated but tiny
    big1.record(t, 10000.0);
    big2.record(t, 9000.0);
  }
  RcaConfig config;
  config.top_k = 2;  // only the two big services are examined
  RootCauseAnalyzer rca(config);
  const auto suspects =
      rca.pinpoint(load_samples(rca, load, 0, sim::seconds(60)),
                   {{S1, &rising_small}, {S2, &big1}, {S3, &big2}},
                   sim::seconds(0), sim::seconds(60));
  EXPECT_EQ(std::find(suspects.begin(), suspects.end(), S1), suspects.end());
}

TEST(Rca, IntersectionAcrossBackends) {
  const auto result = RootCauseAnalyzer::intersect({{S1, S2}, {S2, S3}, {S2}});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.front(), S2);
}

TEST(Rca, EmptyIntersectionFallsThrough) {
  EXPECT_TRUE(RootCauseAnalyzer::intersect({{S1}, {S2}}).empty());
  EXPECT_TRUE(RootCauseAnalyzer::intersect({}).empty());
}

TEST(Rca, NoDataNoSuspects) {
  sim::TimeSeries load;
  RootCauseAnalyzer rca;
  const std::map<net::ServiceId, const sim::TimeSeries*> no_series;
  EXPECT_TRUE(rca.pinpoint(load_samples(rca, load, 0, sim::seconds(60)),
                           no_series, 0, sim::seconds(60))
                  .empty());
}

// --- HdrHistogram -----------------------------------------------------------

TEST(HdrHistogram, QuantilesWithinDocumentedErrorBound) {
  // Identical stream into the bounded histogram and the exact
  // sample-retaining one; every quantile must agree within
  // kMaxRelativeError of the exact nearest-rank value.
  sim::Rng rng(42);
  HdrHistogram hdr;
  sim::Histogram exact;
  for (int i = 0; i < 20'000; ++i) {
    const double v = std::exp(rng.uniform(0.0, 12.0));  // spans ~17 octaves
    hdr.record(v);
    exact.record(v);
  }
  ASSERT_EQ(hdr.count(), exact.count());
  EXPECT_DOUBLE_EQ(hdr.min(), exact.min());
  EXPECT_DOUBLE_EQ(hdr.max(), exact.max());
  EXPECT_DOUBLE_EQ(hdr.mean(), exact.mean());  // same additions, same order
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double want = exact.percentile(p);
    EXPECT_NEAR(hdr.percentile(p), want,
                want * HdrHistogram::kMaxRelativeError)
        << "p" << p;
  }
}

TEST(HdrHistogram, ZeroAndNegativeValuesCountExactly) {
  HdrHistogram h;
  h.record(0.0);
  h.record(-3.0);
  h.record(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.sum(), 2.0);
}

TEST(HdrHistogram, OutOfRangeValuesSaturateButKeepExactExtremes) {
  HdrHistogram h;
  h.record(1e15);  // above 2^40: clamps into the last bucket
  h.record(1e-8);  // below 2^-10: clamps into the first bucket
  EXPECT_EQ(h.count(), 2u);
  // min()/max() track the exact recorded extremes even when bucketing
  // saturates; quantiles report the boundary buckets' midpoints (the
  // documented error bound covers in-range values only).
  EXPECT_DOUBLE_EQ(h.min(), 1e-8);
  EXPECT_DOUBLE_EQ(h.max(), 1e15);
  EXPECT_DOUBLE_EQ(h.percentile(100),
                   HdrHistogram::value_of(HdrHistogram::kBucketCount - 1));
  EXPECT_DOUBLE_EQ(h.percentile(0), HdrHistogram::value_of(0));
}

TEST(HdrHistogram, MergeMatchesConcatenatedStream) {
  sim::Rng rng(7);
  HdrHistogram a;
  HdrHistogram b;
  HdrHistogram whole;
  for (int i = 0; i < 5'000; ++i) {
    const double v = rng.uniform(0.5, 5'000.0);
    (i % 2 == 0 ? a : b).record(v);
  }
  // Same per-part record order, concatenated a-then-b.
  sim::Rng replay(7);
  std::vector<double> first;
  std::vector<double> second;
  for (int i = 0; i < 5'000; ++i) {
    (i % 2 == 0 ? first : second).push_back(replay.uniform(0.5, 5'000.0));
  }
  for (const double v : first) whole.record(v);
  for (const double v : second) whole.record(v);

  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
  for (const double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), whole.percentile(p)) << "p" << p;  // exact
  }
}

TEST(HdrHistogram, MergeIsAssociativeAndCommutative) {
  // Integer-valued samples so the running sums are exact under any
  // addition order; bucket counts/min/max/quantiles are exact regardless.
  const auto fill = [](HdrHistogram& h, int lo, int hi) {
    for (int v = lo; v < hi; ++v) h.record(static_cast<double>(v));
  };
  HdrHistogram a;
  HdrHistogram b;
  HdrHistogram c;
  fill(a, 1, 400);
  fill(b, 300, 900);
  fill(c, 50, 1'000);

  HdrHistogram ab_c = a;   // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  HdrHistogram bc = b;     // a + (b + c)
  bc.merge(c);
  HdrHistogram a_bc = a;
  a_bc.merge(bc);
  HdrHistogram cba = c;    // reversed order
  cba.merge(b);
  cba.merge(a);

  for (const HdrHistogram* h : {&a_bc, &cba}) {
    EXPECT_EQ(h->count(), ab_c.count());
    EXPECT_EQ(h->min(), ab_c.min());
    EXPECT_EQ(h->max(), ab_c.max());
    EXPECT_EQ(h->sum(), ab_c.sum());  // integer-valued: exact
    for (const double p : {5.0, 50.0, 95.0}) {
      EXPECT_EQ(h->percentile(p), ab_c.percentile(p)) << "p" << p;
    }
  }
}

// --- TraceSampler -----------------------------------------------------------

TEST(TraceSampler, SampledCountMatchesClosedFormExactly) {
  const auto tenant = static_cast<net::TenantId>(3);
  TraceSampler sampler(0.25, 7);
  std::uint64_t sampled = 0;
  for (int i = 0; i < 1'000; ++i) {
    if (sampler.should_sample(tenant)) ++sampled;
    // The closed form holds at EVERY prefix, not just the end.
    ASSERT_EQ(sampler.sampled(tenant),
              sampler.expected_samples(tenant,
                                       static_cast<std::uint64_t>(i) + 1));
  }
  EXPECT_EQ(sampler.issued(tenant), 1'000u);
  EXPECT_EQ(sampler.sampled(tenant), sampled);
  // Rate 0.25 over 1000 requests: within one sample of the ideal count.
  EXPECT_NEAR(static_cast<double>(sampled), 250.0, 1.0);
}

TEST(TraceSampler, DeterministicAcrossInstancesAndTenantScoped) {
  TraceSampler s1(0.3, 99);
  TraceSampler s2(0.3, 99);
  const auto t1 = static_cast<net::TenantId>(1);
  const auto t2 = static_cast<net::TenantId>(2);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(s1.should_sample(t1), s2.should_sample(t1));
    EXPECT_EQ(s1.should_sample(t2), s2.should_sample(t2));
  }
  // Interleaving tenants does not change each tenant's own sequence.
  TraceSampler only_t1(0.3, 99);
  std::uint64_t sampled = 0;
  for (int i = 0; i < 200; ++i) {
    if (only_t1.should_sample(t1)) ++sampled;
  }
  EXPECT_EQ(sampled, s1.sampled(t1));
}

TEST(TraceSampler, RateZeroNeverSamplesRateOneAlways) {
  const auto tenant = static_cast<net::TenantId>(5);
  TraceSampler off(0.0, 1);
  TraceSampler all(1.0, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(off.should_sample(tenant));
    EXPECT_TRUE(all.should_sample(tenant));
  }
  // Per-tenant override beats the default rate.
  TraceSampler mixed(0.0, 1);
  mixed.set_rate(tenant, 1.0);
  EXPECT_TRUE(mixed.should_sample(tenant));
  EXPECT_FALSE(mixed.should_sample(static_cast<net::TenantId>(6)));
}

// --- TraceExport / Chrome trace validation ---------------------------------

namespace {

Trace make_contiguous_trace(net::TenantId tenant, sim::TimePoint start) {
  Trace trace;
  trace.set_tenant(tenant);
  trace.add("link/a-b", Component::kLink, start, start + 2'000);
  trace.add("proxy/l7", Component::kL7, start + 2'000, start + 7'000,
            /*queue_wait=*/1'000);
  trace.add("app", Component::kApp, start + 7'000, start + 12'000);
  return trace;
}

}  // namespace

TEST(TraceExport, ExportValidatesAndCountsEntries) {
  TraceExport traces;
  traces.add(make_contiguous_trace(static_cast<net::TenantId>(1), 0), 0, 200);
  traces.add(make_contiguous_trace(static_cast<net::TenantId>(2), 5'000), 1,
             503);
  ASSERT_EQ(traces.size(), 2u);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(traces.to_json(), &error)) << error;
}

TEST(TraceExport, MergePreservesValidity) {
  TraceExport a;
  TraceExport b;
  a.add(make_contiguous_trace(static_cast<net::TenantId>(1), 0), 0, 200);
  b.add(make_contiguous_trace(static_cast<net::TenantId>(1), 50'000), 1, 200);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(a.to_json(), &error)) << error;
}

TEST(TraceExport, EmptyExportIsValidChromeTrace) {
  TraceExport traces;
  EXPECT_TRUE(traces.empty());
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(traces.to_json(), &error)) << error;
}

TEST(ValidateChromeTrace, RejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\":[", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(validate_chrome_trace("not json at all", &error));
  EXPECT_FALSE(validate_chrome_trace("{\"noTraceEvents\":1}", &error));
}

TEST(ValidateChromeTrace, RejectsOverlappingAndGappedSlices) {
  const auto event = [](double ts, double dur) {
    return std::string("{\"name\":\"s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                       "\"ts\":") +
           std::to_string(ts) + ",\"dur\":" + std::to_string(dur) +
           ",\"args\":{\"request\":0,\"status\":200}}";
  };
  std::string error;
  // Overlap: [0,2) and [1,3) for the same (pid, request).
  EXPECT_FALSE(validate_chrome_trace(
      "{\"traceEvents\":[" + event(0, 2) + "," + event(1, 2) + "]}",
      &error));
  // Gap: [0,1) then [2,3).
  EXPECT_FALSE(validate_chrome_trace(
      "{\"traceEvents\":[" + event(0, 1) + "," + event(2, 1) + "]}",
      &error));
  // Contiguous: [0,1) then [1,2) — fine.
  EXPECT_TRUE(validate_chrome_trace(
      "{\"traceEvents\":[" + event(0, 1) + "," + event(1, 1) + "]}",
      &error))
      << error;
}

// --- MetricsRegistry: escaping, export, merge ------------------------------

TEST(MetricsRegistry, LabelEscapingPreventsKeyCollisions) {
  // Regression: an adversarial label VALUE must not canonicalize to the
  // same key as a different label SET. Without escaping, {a: x",b="y}
  // impersonates {a: x, b: y}.
  const MetricsRegistry::Labels crafted = {{"a", "x\",b=\"y"}};
  const MetricsRegistry::Labels legit = {{"a", "x"}, {"b", "y"}};
  EXPECT_NE(MetricsRegistry::key_of("m", crafted),
            MetricsRegistry::key_of("m", legit));

  MetricsRegistry registry;
  registry.counter("m", crafted).inc(1.0);
  registry.counter("m", legit).inc(2.0);
  ASSERT_NE(registry.find_counter("m", crafted), nullptr);
  ASSERT_NE(registry.find_counter("m", legit), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_counter("m", crafted)->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("m", legit)->value(), 2.0);
  // Backslashes must escape too ({"a\\": "b"} vs {"a": "\\b"} style).
  EXPECT_NE(MetricsRegistry::key_of("m", {{"a\\", "b"}}),
            MetricsRegistry::key_of("m", {{"a", "\\b"}}));
}

TEST(MetricsRegistry, JsonExportEscapesLabelsAndElidesEmptyHistograms) {
  MetricsRegistry registry;
  registry.counter("hits", {{"path", "say \"hi\""}}).inc();
  registry.histogram("lat_us", {{"svc", "a"}});  // created, never recorded
  registry.histogram("lat_us", {{"svc", "b"}}).record(10.0);
  const std::string json = registry.to_json();
  // The exported counter key is the canonical key, JSON-escaped the same
  // way the writer escapes it (every '"' and '\' gains a backslash), so
  // the export can never break out of its JSON string.
  std::string escaped_key;
  for (const char ch :
       MetricsRegistry::key_of("hits", {{"path", "say \"hi\""}})) {
    if (ch == '"' || ch == '\\') escaped_key += '\\';
    escaped_key += ch;
  }
  EXPECT_NE(json.find("\"" + escaped_key + "\":1"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("say \"hi\""), std::string::npos) << json;
  // Empty histogram: count only, no quantile keys.
  const auto empty_at = json.find("svc=\\\"a\\\"");
  ASSERT_NE(empty_at, std::string::npos) << json;
  const auto recorded_at = json.find("svc=\\\"b\\\"");
  ASSERT_NE(recorded_at, std::string::npos) << json;
  const std::string empty_part = json.substr(empty_at, recorded_at - empty_at);
  EXPECT_NE(empty_part.find("\"count\":0"), std::string::npos) << empty_part;
  EXPECT_EQ(empty_part.find("p50"), std::string::npos) << empty_part;
}

TEST(MetricsRegistry, MergeFoldsCountersAndHistogramsAndKeepsMeta) {
  const MetricsRegistry::Labels t1 = {{"tenant", "1"}};
  const MetricsRegistry::Labels t2 = {{"tenant", "2"}};
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("requests_total", t1).inc(10);
  b.counter("requests_total", t1).inc(5);
  b.counter("requests_total", t2).inc(7);
  a.histogram("request_latency_us", t1).record(100.0);
  b.histogram("request_latency_us", t1).record(300.0);
  b.histogram("request_latency_us", t2).record(200.0);
  a.gauge("depth").set(1.0);
  b.gauge("depth").set(4.0);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.find_counter("requests_total", t1)->value(), 15.0);
  EXPECT_DOUBLE_EQ(a.find_counter("requests_total", t2)->value(), 7.0);
  ASSERT_NE(a.find_histogram("request_latency_us", t1), nullptr);
  EXPECT_EQ(a.find_histogram("request_latency_us", t1)->count(), 2u);
  // Meta propagates: merged-in histograms are enumerable by name.
  EXPECT_EQ(a.histograms_named("request_latency_us").size(), 2u);
  // Gauges: last-writer-wins (merged side).
  MetricsRegistry c;
  c.merge(a);
  EXPECT_EQ(c.histograms_named("request_latency_us").size(), 2u);
}

TEST(TenantRecorderSet, RoutesByTraceTenantAndCountsErrors) {
  MetricsRegistry registry;
  TenantRecorderSet recorders(registry, {{"dataplane", "test"}});
  recorders.record(make_contiguous_trace(static_cast<net::TenantId>(1), 0),
                   200);
  recorders.record(make_contiguous_trace(static_cast<net::TenantId>(1), 0),
                   503);
  recorders.record(make_contiguous_trace(static_cast<net::TenantId>(2), 0),
                   200);
  const MetricsRegistry::Labels t1 = {{"dataplane", "test"}, {"tenant", "1"}};
  const MetricsRegistry::Labels t2 = {{"dataplane", "test"}, {"tenant", "2"}};
  ASSERT_NE(registry.find_counter("requests_total", t1), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_counter("requests_total", t1)->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("request_errors_total", t1)->value(),
                   1.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("requests_total", t2)->value(), 1.0);
  EXPECT_EQ(registry.find_counter("request_errors_total", t2), nullptr);
  ASSERT_NE(registry.find_histogram("request_latency_us", t1), nullptr);
  EXPECT_EQ(registry.find_histogram("request_latency_us", t1)->count(), 2u);
}

// --- Fairness ---------------------------------------------------------------

TEST(Fairness, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(FairnessReport::jain({}), 1.0);
  EXPECT_DOUBLE_EQ(FairnessReport::jain({0.25, 0.25, 0.25, 0.25}), 1.0);
  EXPECT_DOUBLE_EQ(FairnessReport::jain({1.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(Fairness, FromRegistryBuildsPerTenantSlices) {
  MetricsRegistry registry;
  TenantRecorderSet recorders(registry, {});
  for (int i = 0; i < 3; ++i) {
    recorders.record(make_contiguous_trace(static_cast<net::TenantId>(1), 0),
                     200);
  }
  recorders.record(make_contiguous_trace(static_cast<net::TenantId>(2), 0),
                   500);

  const FairnessReport report = FairnessReport::from_registry(registry);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].tenant, static_cast<net::TenantId>(1));
  EXPECT_EQ(report.tenants[0].requests, 3u);
  EXPECT_DOUBLE_EQ(report.tenants[0].share, 0.75);
  EXPECT_DOUBLE_EQ(report.tenants[0].error_rate, 0.0);
  EXPECT_EQ(report.tenants[1].requests, 1u);
  EXPECT_DOUBLE_EQ(report.tenants[1].error_rate, 1.0);
  // Both tenants recorded identical 12 us traces.
  EXPECT_DOUBLE_EQ(report.tenants[0].p50_us, report.tenants[1].p50_us);
  const auto* found = report.find(static_cast<net::TenantId>(2));
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->share, 0.25);
  EXPECT_EQ(report.find(static_cast<net::TenantId>(9)), nullptr);
  // Jain over shares {0.75, 0.25}.
  EXPECT_NEAR(report.jain_index, 0.8, 1e-12);
}

TEST(Rca, PinpointTenantsFlagsThroughputAndErrorSuspects) {
  FairnessReport report;
  report.tenants = {
      {static_cast<net::TenantId>(1), 100, 10.0, 20.0, 0.1, 0.0},
      {static_cast<net::TenantId>(2), 700, 10.0, 20.0, 0.7, 0.0},
      {static_cast<net::TenantId>(3), 200, 10.0, 20.0, 0.2, 0.5},
  };
  RcaConfig config;  // fair share 1/3, multiple 2.0 -> threshold 2/3
  const auto suspects = RootCauseAnalyzer(config).pinpoint_tenants(report);
  ASSERT_EQ(suspects.size(), 2u);
  // Error-burst tenant 3 scores 0.5/0.05 = 10, above tenant 2's
  // throughput score 0.7/(2/3) = 1.05.
  EXPECT_EQ(suspects[0].tenant, static_cast<net::TenantId>(3));
  EXPECT_EQ(suspects[0].reason, "error-burst");
  EXPECT_EQ(suspects[1].tenant, static_cast<net::TenantId>(2));
  EXPECT_EQ(suspects[1].reason, "throughput-share");
  EXPECT_GT(suspects[0].score, suspects[1].score);
}

TEST(Rca, PinpointTenantsQuietWhenFair) {
  FairnessReport report;
  report.tenants = {
      {static_cast<net::TenantId>(1), 500, 10.0, 20.0, 0.5, 0.0},
      {static_cast<net::TenantId>(2), 500, 10.0, 20.0, 0.5, 0.01},
  };
  EXPECT_TRUE(RootCauseAnalyzer().pinpoint_tenants(report).empty());
}

}  // namespace
}  // namespace canal::telemetry
