// HTTP/1.1 message model.
//
// Requests and responses the mesh dataplane routes on. Header matching is
// case-insensitive per RFC 9110. Bodies are real byte strings so parser and
// serializer round-trip exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace canal::http {

enum class Method : std::uint8_t {
  kGet,
  kHead,
  kPost,
  kPut,
  kDelete,
  kConnect,
  kOptions,
  kTrace,
  kPatch,
};

[[nodiscard]] std::string_view method_name(Method m) noexcept;
[[nodiscard]] std::optional<Method> parse_method(std::string_view text) noexcept;

/// Ordered multimap of headers with case-insensitive name lookup.
class HeaderMap {
 public:
  void add(std::string name, std::string value);
  /// Replaces all values of `name` with one value.
  void set(std::string name, std::string value);
  void remove(std::string_view name);

  /// Returns the value slot for `name` (first match; duplicates removed,
  /// set() semantics), adding an empty entry if absent. Assigning into the
  /// returned string overwrites in place and reuses its capacity — the
  /// allocation-free alternative to set() for values that outgrow the
  /// small-string buffer. The reference is invalidated by any mutation.
  std::string& value_slot(std::string_view name);

  [[nodiscard]] std::optional<std::string_view> get(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& entries()
      const noexcept {
    return entries_;
  }

  /// Serialized size in bytes (name + ": " + value + CRLF per entry).
  [[nodiscard]] std::size_t wire_size() const noexcept;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Case-insensitive ASCII string equality (header names, header match rules).
/// Exact bytes are tried first: the names the simulator writes itself
/// ("Host", "Content-Length") match with one size check and one memcmp.
[[nodiscard]] inline bool iequals(std::string_view a,
                                  std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  if (a == b) return true;
  // ASCII-only case fold, inline: the locale-aware std::tolower is an
  // out-of-line call per byte, and the simulator never calls setlocale, so
  // in the "C" locale the two agree on every byte.
  constexpr auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

struct Request {
  Method method = Method::kGet;
  std::string path = "/";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  [[nodiscard]] std::string serialize() const;
  /// Serializes into `out` (cleared first), reusing its capacity — the
  /// zero-allocation path for per-request serialization into a scratch
  /// buffer.
  void serialize_to(std::string& out) const;
  [[nodiscard]] std::size_t wire_size() const noexcept;

  /// Path without the query string.
  [[nodiscard]] std::string_view path_only() const noexcept;
  /// Value of query parameter `key`, if present.
  [[nodiscard]] std::optional<std::string_view> query_param(
      std::string_view key) const noexcept;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  [[nodiscard]] std::string serialize() const;
  /// Serializes into `out` (cleared first), reusing its capacity.
  void serialize_to(std::string& out) const;
  [[nodiscard]] std::size_t wire_size() const noexcept;
  [[nodiscard]] bool is_error() const noexcept { return status >= 400; }
};

/// Canonical reason phrase for a status code ("OK", "Not Found", ...).
[[nodiscard]] std::string_view reason_phrase(int status) noexcept;

}  // namespace canal::http
