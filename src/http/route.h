// L7 traffic control: route matching and actions.
//
// This implements the service-mesh traffic-control feature set the paper
// lists in §4.1.1: route control (path/header/method/query matching),
// weighted traffic splitting (canary release, A/B testing), header
// mutation, retries/timeouts, and direct responses. The same table type is
// installed in Istio sidecars, Ambient waypoints, and Canal's mesh gateway.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "sim/time.h"

namespace canal::http {

/// One match condition; all populated fields must hold.
struct RouteMatch {
  enum class PathKind : std::uint8_t { kAny, kExact, kPrefix };

  PathKind path_kind = PathKind::kAny;
  std::string path;

  std::optional<Method> method;

  struct HeaderMatch {
    std::string name;
    /// Empty means "present"; otherwise exact (case-sensitive) value match.
    std::string value;
    bool invert = false;
  };
  std::vector<HeaderMatch> headers;

  struct QueryMatch {
    std::string key;
    std::string value;  // empty = present
  };
  std::vector<QueryMatch> query_params;

  [[nodiscard]] bool matches(const Request& req) const;
};

/// Destination cluster with a canary/AB split weight.
struct WeightedCluster {
  std::string cluster;
  std::uint32_t weight = 1;
};

/// What to do with a matched request.
struct RouteAction {
  /// Weighted destinations; a single entry is a plain route.
  std::vector<WeightedCluster> clusters;

  /// Respond immediately without forwarding (e.g. 403 from authorization).
  std::optional<int> direct_response_status;

  /// Header rewrites applied before forwarding.
  std::vector<std::pair<std::string, std::string>> request_headers_to_set;
  std::vector<std::string> request_headers_to_remove;

  /// Path prefix rewrite (applies to kPrefix matches).
  std::optional<std::string> prefix_rewrite;

  sim::Duration timeout = sim::seconds(15);
  std::uint32_t max_retries = 0;

  /// Picks a destination cluster given a uniform [0,1) draw.
  [[nodiscard]] const std::string* pick_cluster(double uniform_draw) const;

  /// Index into `clusters` the same draw selects (shared by pick_cluster
  /// and the proxy fastpath cache, so both consume the draw identically).
  /// Precondition: clusters is non-empty.
  [[nodiscard]] std::size_t pick_index(double uniform_draw) const;
};

struct RouteRule {
  std::string name;
  RouteMatch match;
  RouteAction action;

  /// Applies the action's request mutations (header removes/sets, prefix
  /// rewrite) to `req` — the side effects of a successful resolve().
  void apply(Request& req) const;
};

/// Result of route resolution.
struct RouteResult {
  const RouteRule* rule = nullptr;
  /// Chosen destination (after weighted pick): a view of the rule's own
  /// cluster name, valid while the table is unchanged.
  std::string_view cluster;
  bool direct_response = false;
  int direct_status = 0;
};

/// First-match-wins ordered route table (one per virtual host / service).
class RouteTable {
 public:
  void add_rule(RouteRule rule) { rules_.push_back(std::move(rule)); }
  void clear() noexcept { rules_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] const std::vector<RouteRule>& rules() const noexcept {
    return rules_;
  }

  /// Resolves a request. `uniform_draw` in [0,1) drives weighted splits.
  /// Also applies the action's header mutations / prefix rewrite to `req`.
  [[nodiscard]] std::optional<RouteResult> resolve(Request& req,
                                                   double uniform_draw) const;

  /// Approximate serialized configuration size in bytes; used for
  /// southbound-bandwidth accounting in the control-plane model.
  [[nodiscard]] std::size_t config_bytes() const noexcept;

 private:
  std::vector<RouteRule> rules_;
};

}  // namespace canal::http
