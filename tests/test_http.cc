// Unit tests for the HTTP substrate: messages, parser, route matching.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>

#include "http/message.h"
#include "http/parser.h"
#include "http/route.h"
#include "sim/rng.h"
#include "tests/testutil.h"

namespace canal::http {
namespace {

TEST(HeaderMap, CaseInsensitiveLookup) {
  HeaderMap headers;
  headers.add("Content-Type", "text/plain");
  EXPECT_EQ(headers.get("content-type"), "text/plain");
  EXPECT_EQ(headers.get("CONTENT-TYPE"), "text/plain");
  EXPECT_FALSE(headers.get("content-length").has_value());
}

TEST(HeaderMap, IequalsFoldsAsciiLettersOnly) {
  const std::string upper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  const std::string lower = "abcdefghijklmnopqrstuvwxyz";
  EXPECT_TRUE(iequals(upper, lower));
  EXPECT_TRUE(iequals("Content-Type", "content-TYPE"));
  EXPECT_FALSE(iequals("Content-Type", "Content-Typo"));
  EXPECT_FALSE(iequals("abc", "abcd"));
  // Neighbours of the letter ranges differ by the same 0x20 bit but are not
  // letters: they must not fold.
  EXPECT_FALSE(iequals("@", "`"));
  EXPECT_FALSE(iequals("[", "{"));
  EXPECT_FALSE(iequals("^", "~"));
  // Bytes >= 0x80 compare exactly: Latin-1 0xC4 and 0xE4 differ by 0x20
  // like an ASCII case pair, yet stay distinct.
  for (int b = 0x80; b <= 0xff; ++b) {
    const std::string byte(1, static_cast<char>(b));
    EXPECT_TRUE(iequals(byte, byte)) << b;
    const std::string other(1, static_cast<char>(b ^ 0x20));
    EXPECT_FALSE(iequals(byte, other)) << b;
  }
  HeaderMap headers;
  headers.set("X-Tenant", "a");
  EXPECT_EQ(headers.get("x-tenant"), "a");
  EXPECT_FALSE(headers.get("x-t\xc5nant").has_value());
}

TEST(HeaderMap, SetReplacesAll) {
  HeaderMap headers;
  headers.add("X-Tag", "a");
  headers.add("x-tag", "b");
  headers.set("X-TAG", "c");
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.get("x-tag"), "c");
}

TEST(HeaderMap, RemoveIsCaseInsensitive) {
  HeaderMap headers;
  headers.add("Authorization", "Bearer x");
  headers.remove("authorization");
  EXPECT_TRUE(headers.empty());
}

TEST(Request, SerializeShape) {
  Request req;
  req.method = Method::kPost;
  req.path = "/api/v1";
  req.headers.add("Host", "example");
  req.body = "hello";
  req.headers.add("Content-Length", "5");
  const std::string wire = req.serialize();
  EXPECT_TRUE(wire.starts_with("POST /api/v1 HTTP/1.1\r\n"));
  EXPECT_NE(wire.find("Host: example\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\nhello"));
  EXPECT_EQ(wire.size(), req.wire_size());
}

TEST(Request, QueryParams) {
  Request req;
  req.path = "/search?q=mesh&limit=10&flag";
  EXPECT_EQ(req.path_only(), "/search");
  EXPECT_EQ(req.query_param("q"), "mesh");
  EXPECT_EQ(req.query_param("limit"), "10");
  EXPECT_EQ(req.query_param("flag"), "");
  EXPECT_FALSE(req.query_param("missing").has_value());
}

TEST(Response, SerializeShape) {
  Response resp;
  resp.status = 404;
  resp.reason = "Not Found";
  const std::string wire = resp.serialize();
  EXPECT_TRUE(wire.starts_with("HTTP/1.1 404 Not Found\r\n"));
  EXPECT_EQ(wire.size(), resp.wire_size());
  EXPECT_TRUE(resp.is_error());
}

TEST(ReasonPhrase, KnownCodes) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(429), "Too Many Requests");
  EXPECT_EQ(reason_phrase(503), "Service Unavailable");
  EXPECT_EQ(reason_phrase(599), "Unknown");
}

TEST(RequestParser, ParsesSimpleRequest) {
  RequestParser parser;
  const auto status = parser.feed(
      "GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n");
  ASSERT_EQ(status, ParseStatus::kComplete);
  EXPECT_EQ(parser.request().method, Method::kGet);
  EXPECT_EQ(parser.request().path, "/index.html");
  EXPECT_EQ(parser.request().headers.get("Host"), "example.com");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(RequestParser, ParsesBodyWithContentLength) {
  RequestParser parser;
  const auto status = parser.feed(
      "POST /api HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  ASSERT_EQ(status, ParseStatus::kComplete);
  EXPECT_EQ(parser.request().body, "hello");
}

TEST(RequestParser, IncrementalByteByByte) {
  const std::string wire =
      "PUT /x?a=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc";
  RequestParser parser;
  ParseStatus status = ParseStatus::kNeedMore;
  for (const char c : wire) {
    status = parser.feed(std::string_view(&c, 1));
  }
  ASSERT_EQ(status, ParseStatus::kComplete);
  EXPECT_EQ(parser.request().method, Method::kPut);
  EXPECT_EQ(parser.request().body, "abc");
}

TEST(RequestParser, RoundTripsSerializer) {
  Request original;
  original.method = Method::kPatch;
  original.path = "/v2/items?id=9";
  original.headers.add("Host", "svc");
  original.headers.add("X-Canary", "true");
  original.body = "payload-bytes";
  original.headers.add("Content-Length",
                       std::to_string(original.body.size()));
  RequestParser parser;
  ASSERT_EQ(parser.feed(original.serialize()), ParseStatus::kComplete);
  EXPECT_EQ(parser.request().method, original.method);
  EXPECT_EQ(parser.request().path, original.path);
  EXPECT_EQ(parser.request().body, original.body);
  EXPECT_EQ(parser.request().headers.get("X-Canary"), "true");
}

TEST(RequestParser, ChunkedBody) {
  RequestParser parser;
  const auto status = parser.feed(
      "POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
  ASSERT_EQ(status, ParseStatus::kComplete);
  EXPECT_EQ(parser.request().body, "hello world");
}

TEST(RequestParser, ChunkedWithExtensionAndTrailer) {
  RequestParser parser;
  const auto status = parser.feed(
      "POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3;ext=1\r\nabc\r\n0\r\nX-Trailer: t\r\n\r\n");
  ASSERT_EQ(status, ParseStatus::kComplete);
  EXPECT_EQ(parser.request().body, "abc");
  EXPECT_EQ(parser.request().headers.get("X-Trailer"), "t");
}

TEST(RequestParser, PipelinedRequests) {
  RequestParser parser;
  ASSERT_EQ(parser.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            ParseStatus::kComplete);
  EXPECT_EQ(parser.request().path, "/a");
  parser.reset();
  ASSERT_EQ(parser.status(), ParseStatus::kComplete);
  EXPECT_EQ(parser.request().path, "/b");
}

struct MalformedCase {
  const char* name;
  const char* wire;
};

// Without a PrintTo, gtest prints the struct's raw bytes (two pointers)
// into the ctest name, which then changes from build to build.
void PrintTo(const MalformedCase& c, std::ostream* os) {
  *os << std::strlen(c.wire) << "-byte request";
}

class MalformedRequestTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedRequestTest, Rejected) {
  RequestParser parser;
  EXPECT_EQ(parser.feed(GetParam().wire), ParseStatus::kError)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedRequestTest,
    ::testing::Values(
        MalformedCase{"bad_method", "FETCH / HTTP/1.1\r\n\r\n"},
        MalformedCase{"no_target", "GET  HTTP/1.1\r\n\r\n"},
        MalformedCase{"bad_version", "GET / HTTP/2.0\r\n\r\n"},
        MalformedCase{"colonless_header", "GET / HTTP/1.1\r\nBadHeader\r\n\r\n"},
        MalformedCase{"space_before_colon",
                      "GET / HTTP/1.1\r\nName : v\r\n\r\n"},
        MalformedCase{"bad_content_length",
                      "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"},
        MalformedCase{"bad_chunk_size",
                      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                      "zz\r\n"},
        MalformedCase{"missing_crlf_after_chunk",
                      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                      "3\r\nabcXY"}),
    [](const auto& info) { return info.param.name; });

TEST(RequestParser, ErrorIsSticky) {
  RequestParser parser;
  ASSERT_EQ(parser.feed("BROKEN\r\n\r\n"), ParseStatus::kError);
  EXPECT_EQ(parser.feed("GET / HTTP/1.1\r\n\r\n"), ParseStatus::kError);
  parser.reset();
}

TEST(ResponseParser, ParsesResponse) {
  ResponseParser parser;
  const auto status = parser.feed(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
  ASSERT_EQ(status, ParseStatus::kComplete);
  EXPECT_EQ(parser.response().status, 200);
  EXPECT_EQ(parser.response().reason, "OK");
  EXPECT_EQ(parser.response().body, "ok");
}

TEST(ResponseParser, RejectsBadStatusCode) {
  ResponseParser parser;
  EXPECT_EQ(parser.feed("HTTP/1.1 abc OK\r\n\r\n"), ParseStatus::kError);
  ResponseParser parser2;
  EXPECT_EQ(parser2.feed("HTTP/1.1 42 Odd\r\n\r\n"), ParseStatus::kError);
}

TEST(ResponseParser, ReasonMayBeEmpty) {
  ResponseParser parser;
  ASSERT_EQ(parser.feed("HTTP/1.1 204\r\n\r\n"), ParseStatus::kComplete);
  EXPECT_EQ(parser.response().status, 204);
}

// ---- Route matching ----------------------------------------------------

Request make_request(std::string path, Method method = Method::kGet) {
  Request req;
  req.method = method;
  req.path = std::move(path);
  return req;
}

TEST(RouteMatch, PathPrefixAndExact) {
  RouteMatch prefix;
  prefix.path_kind = RouteMatch::PathKind::kPrefix;
  prefix.path = "/api/";
  Request r1 = make_request("/api/users");
  Request r2 = make_request("/web/index");
  EXPECT_TRUE(prefix.matches(r1));
  EXPECT_FALSE(prefix.matches(r2));

  RouteMatch exact;
  exact.path_kind = RouteMatch::PathKind::kExact;
  exact.path = "/health";
  Request r3 = make_request("/health");
  Request r4 = make_request("/health/deep");
  Request r5 = make_request("/health?probe=1");  // query ignored
  EXPECT_TRUE(exact.matches(r3));
  EXPECT_FALSE(exact.matches(r4));
  EXPECT_TRUE(exact.matches(r5));
}

TEST(RouteMatch, MethodAndHeaders) {
  RouteMatch match;
  match.method = Method::kPost;
  match.headers.push_back({"X-User-Group", "beta", false});
  Request hit = make_request("/", Method::kPost);
  hit.headers.add("X-User-Group", "beta");
  Request wrong_method = make_request("/", Method::kGet);
  wrong_method.headers.add("X-User-Group", "beta");
  Request wrong_value = make_request("/", Method::kPost);
  wrong_value.headers.add("X-User-Group", "alpha");
  EXPECT_TRUE(match.matches(hit));
  EXPECT_FALSE(match.matches(wrong_method));
  EXPECT_FALSE(match.matches(wrong_value));
}

TEST(RouteMatch, HeaderPresenceAndInvert) {
  RouteMatch present;
  present.headers.push_back({"Authorization", "", false});
  Request with = make_request("/");
  with.headers.add("Authorization", "Bearer t");
  Request without = make_request("/");
  EXPECT_TRUE(present.matches(with));
  EXPECT_FALSE(present.matches(without));

  RouteMatch inverted;
  inverted.headers.push_back({"Authorization", "", true});
  EXPECT_FALSE(inverted.matches(with));
  EXPECT_TRUE(inverted.matches(without));
}

TEST(RouteMatch, QueryParams) {
  RouteMatch match;
  match.query_params.push_back({"version", "2"});
  Request hit = make_request("/api?version=2");
  Request miss = make_request("/api?version=1");
  Request absent = make_request("/api");
  EXPECT_TRUE(match.matches(hit));
  EXPECT_FALSE(match.matches(miss));
  EXPECT_FALSE(match.matches(absent));
}

RouteTable canary_table() {
  RouteTable table;
  RouteRule rule;
  rule.name = "canary";
  rule.match.path_kind = RouteMatch::PathKind::kPrefix;
  rule.match.path = "/";
  rule.action.clusters = {{"stable", 90}, {"canary", 10}};
  table.add_rule(std::move(rule));
  return table;
}

TEST(RouteTable, WeightedSplitApproximatesWeights) {
  const RouteTable table = canary_table();
  sim::Rng rng(37);
  int canary = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    Request req = make_request("/item");
    const auto result = table.resolve(req, rng.uniform());
    ASSERT_TRUE(result.has_value());
    if (result->cluster == "canary") ++canary;
  }
  EXPECT_NEAR(static_cast<double>(canary) / kN, 0.10, 0.01);
}

TEST(RouteTable, FirstMatchWins) {
  RouteTable table;
  RouteRule specific;
  specific.name = "specific";
  specific.match.path_kind = RouteMatch::PathKind::kExact;
  specific.match.path = "/admin";
  specific.action.clusters = {{"admin-cluster", 1}};
  table.add_rule(specific);
  RouteRule fallback;
  fallback.name = "fallback";
  fallback.match.path_kind = RouteMatch::PathKind::kPrefix;
  fallback.match.path = "/";
  fallback.action.clusters = {{"default-cluster", 1}};
  table.add_rule(fallback);

  Request admin = make_request("/admin");
  EXPECT_EQ(table.resolve(admin, 0.5)->cluster, "admin-cluster");
  Request other = make_request("/other");
  EXPECT_EQ(table.resolve(other, 0.5)->cluster, "default-cluster");
}

TEST(RouteTable, DirectResponse) {
  RouteTable table;
  RouteRule deny;
  deny.name = "authz-deny";
  deny.match.path_kind = RouteMatch::PathKind::kPrefix;
  deny.match.path = "/internal";
  deny.action.direct_response_status = 403;
  table.add_rule(deny);
  Request req = make_request("/internal/secrets");
  const auto result = table.resolve(req, 0.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->direct_response);
  EXPECT_EQ(result->direct_status, 403);
}

TEST(RouteTable, HeaderMutationApplied) {
  RouteTable table;
  RouteRule rule;
  rule.match.path_kind = RouteMatch::PathKind::kPrefix;
  rule.match.path = "/";
  rule.action.clusters = {{"c", 1}};
  rule.action.request_headers_to_set = {{"X-Mesh", "canal"}};
  rule.action.request_headers_to_remove = {"X-Debug"};
  table.add_rule(rule);
  Request req = make_request("/x");
  req.headers.add("X-Debug", "1");
  ASSERT_TRUE(table.resolve(req, 0.0).has_value());
  EXPECT_EQ(req.headers.get("X-Mesh"), "canal");
  EXPECT_FALSE(req.headers.contains("X-Debug"));
}

TEST(RouteTable, PrefixRewrite) {
  RouteTable table;
  RouteRule rule;
  rule.match.path_kind = RouteMatch::PathKind::kPrefix;
  rule.match.path = "/v1/";
  rule.action.clusters = {{"c", 1}};
  rule.action.prefix_rewrite = "/internal/v1/";
  table.add_rule(rule);
  Request req = make_request("/v1/users");
  ASSERT_TRUE(table.resolve(req, 0.0).has_value());
  EXPECT_EQ(req.path, "/internal/v1/users");
}

TEST(RouteTable, NoMatchReturnsNullopt) {
  RouteTable table;
  RouteRule rule;
  rule.match.path_kind = RouteMatch::PathKind::kExact;
  rule.match.path = "/only";
  rule.action.clusters = {{"c", 1}};
  table.add_rule(rule);
  Request req = make_request("/other");
  EXPECT_FALSE(table.resolve(req, 0.0).has_value());
}

TEST(RouteTable, ConfigBytesGrowWithRules) {
  RouteTable small = canary_table();
  RouteTable large = canary_table();
  for (int i = 0; i < 10; ++i) {
    RouteRule rule;
    rule.name = testutil::numbered("extra-", i);
    rule.match.path = testutil::numbered("/extra/", i);
    rule.action.clusters = {{testutil::numbered("c", i), 1}};
    large.add_rule(rule);
  }
  EXPECT_GT(large.config_bytes(), small.config_bytes());
}

TEST(RouteAction, PickClusterEdgeDraws) {
  RouteAction action;
  action.clusters = {{"a", 1}, {"b", 1}};
  EXPECT_EQ(*action.pick_cluster(0.0), "a");
  EXPECT_EQ(*action.pick_cluster(0.999999), "b");
  RouteAction empty;
  EXPECT_EQ(empty.pick_cluster(0.5), nullptr);
}

TEST(RequestParser, ByteAtATimeDripFeed) {
  // Regression for the O(n^2) rescan: a drip-fed message must parse
  // correctly with the CRLF search resuming at the scan watermark, including
  // a "\r" that arrives in one feed and its "\n" in the next.
  const std::string wire =
      "POST /orders HTTP/1.1\r\n"
      "Host: api.example\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello";
  RequestParser parser;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const ParseStatus st = parser.feed(std::string_view(&wire[i], 1));
    if (i + 1 < wire.size()) {
      ASSERT_EQ(st, ParseStatus::kNeedMore) << "at byte " << i;
    } else {
      ASSERT_EQ(st, ParseStatus::kComplete);
    }
  }
  EXPECT_EQ(parser.request().method, Method::kPost);
  EXPECT_EQ(parser.request().path, "/orders");
  EXPECT_EQ(parser.request().body, "hello");
  EXPECT_EQ(parser.request().headers.get("host"), "api.example");
}

TEST(RequestParser, DripFedLongHeaderStaysLinear) {
  // A long header value arriving byte-at-a-time used to rescan the whole
  // pending buffer for "\r\n" on every feed. Functionally this must still
  // parse; the watermark keeps each feed O(1) so even a 12KB header drip
  // completes instantly.
  const std::string cookie(12 * 1024, 'c');
  const std::string wire =
      "GET / HTTP/1.1\r\nCookie: " + cookie + "\r\n\r\n";
  RequestParser parser;
  ParseStatus st = ParseStatus::kNeedMore;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    st = parser.feed(std::string_view(&wire[i], 1));
  }
  ASSERT_EQ(st, ParseStatus::kComplete);
  EXPECT_EQ(parser.request().headers.get("cookie"), cookie);
}

TEST(RequestParser, PipelinedBurstAcrossCompactionThreshold) {
  // Enough pipelined requests in one buffer to cross the 16KB compaction
  // threshold: both the pos_-advance branch (small consumed prefix) and the
  // compaction branch must hand each message off intact.
  std::string wire;
  const int kRequests = 300;
  for (int i = 0; i < kRequests; ++i) {
    wire += "GET /item/" + std::to_string(i) +
            " HTTP/1.1\r\nHost: h\r\nX-Filler: " + std::string(64, 'f') +
            "\r\n\r\n";
  }
  RequestParser parser;
  ASSERT_EQ(parser.feed(wire), ParseStatus::kComplete);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(parser.status(), ParseStatus::kComplete) << "request " << i;
    EXPECT_EQ(parser.request().path, "/item/" + std::to_string(i));
    parser.reset();
    if (i + 1 < kRequests) {
      // Pipelined bytes retained by reset() resume parsing immediately.
      ASSERT_EQ(parser.feed(""), ParseStatus::kComplete) << "request " << i;
    }
  }
}

}  // namespace
}  // namespace canal::http
