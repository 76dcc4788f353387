#include "http/message.h"

#include <algorithm>

namespace canal::http {
namespace {

constexpr std::string_view kMethodNames[] = {
    "GET",     "HEAD",    "POST",  "PUT",  "DELETE",
    "CONNECT", "OPTIONS", "TRACE", "PATCH"};

}  // namespace

std::string_view method_name(Method m) noexcept {
  return kMethodNames[static_cast<std::uint8_t>(m)];
}

std::optional<Method> parse_method(std::string_view text) noexcept {
  for (std::size_t i = 0; i < std::size(kMethodNames); ++i) {
    if (text == kMethodNames[i]) return static_cast<Method>(i);
  }
  return std::nullopt;
}

void HeaderMap::add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

void HeaderMap::set(std::string name, std::string value) {
  remove(name);
  add(std::move(name), std::move(value));
}

std::string& HeaderMap::value_slot(std::string_view name) {
  std::size_t found = entries_.size();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (iequals(entries_[i].first, name)) {
      found = i;
      break;
    }
  }
  if (found == entries_.size()) {
    entries_.emplace_back(std::string(name), std::string());
    return entries_.back().second;
  }
  // set() semantics: one value per name — drop any later duplicates.
  for (std::size_t i = entries_.size(); i-- > found + 1;) {
    if (iequals(entries_[i].first, name)) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return entries_[found].second;
}

void HeaderMap::remove(std::string_view name) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const auto& e) {
                                  return iequals(e.first, name);
                                }),
                 entries_.end());
}

std::optional<std::string_view> HeaderMap::get(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (iequals(n, name)) return std::string_view(v);
  }
  return std::nullopt;
}

bool HeaderMap::contains(std::string_view name) const {
  return get(name).has_value();
}

std::size_t HeaderMap::wire_size() const noexcept {
  std::size_t total = 0;
  for (const auto& [n, v] : entries_) total += n.size() + v.size() + 4;
  return total;
}

std::string_view Request::path_only() const noexcept {
  const std::string_view p = path;
  const auto q = p.find('?');
  return q == std::string_view::npos ? p : p.substr(0, q);
}

std::optional<std::string_view> Request::query_param(
    std::string_view key) const noexcept {
  const std::string_view p = path;
  const auto q = p.find('?');
  if (q == std::string_view::npos) return std::nullopt;
  std::string_view qs = p.substr(q + 1);
  while (!qs.empty()) {
    const auto amp = qs.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? qs : qs.substr(0, amp);
    const auto eq = pair.find('=');
    const std::string_view k =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (k == key) {
      return eq == std::string_view::npos ? std::string_view{}
                                          : pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    qs = qs.substr(amp + 1);
  }
  return std::nullopt;
}

std::string Request::serialize() const {
  std::string out;
  serialize_to(out);
  return out;
}

void Request::serialize_to(std::string& out) const {
  out.clear();
  out.reserve(wire_size());
  out.append(method_name(method));
  out.push_back(' ');
  out.append(path);
  out.push_back(' ');
  out.append(version);
  out.append("\r\n");
  for (const auto& [n, v] : headers.entries()) {
    out.append(n).append(": ").append(v).append("\r\n");
  }
  out.append("\r\n");
  out.append(body);
}

std::size_t Request::wire_size() const noexcept {
  return method_name(method).size() + 1 + path.size() + 1 + version.size() +
         2 + headers.wire_size() + 2 + body.size();
}

std::string Response::serialize() const {
  std::string out;
  serialize_to(out);
  return out;
}

void Response::serialize_to(std::string& out) const {
  out.clear();
  out.reserve(wire_size());
  out.append(version);
  out.push_back(' ');
  char code[4] = {static_cast<char>('0' + status / 100),
                  static_cast<char>('0' + (status / 10) % 10),
                  static_cast<char>('0' + status % 10), '\0'};
  out.append(status >= 100 && status <= 999 ? std::string_view(code, 3)
                                            : std::string_view());
  if (status < 100 || status > 999) out.append(std::to_string(status));
  out.push_back(' ');
  out.append(reason);
  out.append("\r\n");
  for (const auto& [n, v] : headers.entries()) {
    out.append(n).append(": ").append(v).append("\r\n");
  }
  out.append("\r\n");
  out.append(body);
}

std::size_t Response::wire_size() const noexcept {
  return version.size() + 1 + 3 + 1 + reason.size() + 2 + headers.wire_size() +
         2 + body.size();
}

std::string_view reason_phrase(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

}  // namespace canal::http
