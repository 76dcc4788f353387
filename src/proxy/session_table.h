// Connection session table with finite capacity.
//
// Gateway replicas run on VMs whose session state lives in SmartNIC memory
// (§3.2 Issue #4): capacity is a hard resource. The table supports idle
// expiry and exposes occupancy — the signal behind both the session-flood
// attack detection of §6.2 (sessions surge without RPS) and the
// session-aggregation motivation (90% sessions at 20% CPU).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "net/flow.h"
#include "net/ids.h"
#include "sim/flat_map.h"
#include "sim/time.h"

namespace canal::proxy {

struct Session {
  net::FiveTuple tuple;
  net::ServiceId service{};
  sim::TimePoint created = 0;
  sim::TimePoint last_active = 0;
};

class SessionTable {
 public:
  explicit SessionTable(std::size_t capacity) : capacity_(capacity) {}

  /// Inserts a new session; false when the table is full (flow rejected).
  bool insert(const net::FiveTuple& tuple, net::ServiceId service,
              sim::TimePoint now);

  /// Called after an insert makes an empty table non-empty: the owner of
  /// an idle-expiry deadline learns that one is due.
  void set_on_first_session(std::function<void()> callback) {
    on_first_session_ = std::move(callback);
  }

  /// Looks up and refreshes last_active.
  [[nodiscard]] Session* touch(const net::FiveTuple& tuple, sim::TimePoint now);
  [[nodiscard]] const Session* find(const net::FiveTuple& tuple) const;

  bool remove(const net::FiveTuple& tuple);

  /// Drops sessions idle longer than `idle_timeout`; returns count dropped.
  /// Skips the scan while the idle floor shows no session can be that
  /// idle, so a sweep that drops nothing usually costs O(1).
  std::size_t expire_idle(sim::TimePoint now, sim::Duration idle_timeout);

  /// Drops every session (lossy migration resets all state).
  std::size_t clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] double occupancy() const noexcept {
    return capacity_ == 0
               ? 0.0
               : static_cast<double>(sessions_.size()) /
                     static_cast<double>(capacity_);
  }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

  /// Lower bound on every live session's last activity; the largest
  /// TimePoint when the table is empty. expire_idle(now, timeout) scans
  /// only when now - idle_floor() > timeout.
  [[nodiscard]] sim::TimePoint idle_floor() const noexcept {
    return idle_floor_;
  }

  /// Sessions belonging to `service`.
  [[nodiscard]] std::size_t count_for(net::ServiceId service) const;

  /// Drops every session of `service` (lossy migration of one tenant
  /// service); returns count dropped.
  std::size_t remove_for(net::ServiceId service);

  /// Sessions of `service` established more than `age` ago — the
  /// long-lasting sessions §6.3's migration selection avoids.
  [[nodiscard]] std::size_t count_older_than(net::ServiceId service,
                                             sim::TimePoint now,
                                             sim::Duration age) const;

 private:
  std::size_t capacity_;
  // Flat open-addressing table: the per-request insert/touch/find path is
  // one probe run over contiguous slots. Iterating consumers (counts,
  // expiry) aggregate order-independently, so the hash order is safe.
  sim::FlatHashMap<net::FiveTuple, Session> sessions_;
  std::uint64_t rejected_ = 0;
  /// Lower bound on every live session's last_active; the largest
  /// TimePoint exactly when the table is empty. An insert into an empty
  /// table sets it to now (otherwise it is already at most now); touch
  /// only raises last_active, because simulated time never runs
  /// backwards; removes leave it a valid, if stale, bound, and reset it
  /// once the table empties. An expiry scan resets it to the oldest
  /// survivor.
  sim::TimePoint idle_floor_ = std::numeric_limits<sim::TimePoint>::max();
  std::function<void()> on_first_session_;
};

}  // namespace canal::proxy
