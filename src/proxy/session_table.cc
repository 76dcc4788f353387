#include "proxy/session_table.h"

#include <algorithm>

namespace canal::proxy {

bool SessionTable::insert(const net::FiveTuple& tuple, net::ServiceId service,
                          sim::TimePoint now) {
  if (sessions_.size() >= capacity_) {
    ++rejected_;
    return false;
  }
  sessions_[tuple] = Session{tuple, service, now, now};
  if (idle_floor_ == std::numeric_limits<sim::TimePoint>::max()) {
    idle_floor_ = now;  // the table was empty
    if (on_first_session_) on_first_session_();
  }
  return true;
}

Session* SessionTable::touch(const net::FiveTuple& tuple, sim::TimePoint now) {
  const auto it = sessions_.find(tuple);
  if (it == sessions_.end()) return nullptr;
  it->second.last_active = now;
  return &it->second;
}

const Session* SessionTable::find(const net::FiveTuple& tuple) const {
  const auto it = sessions_.find(tuple);
  return it == sessions_.end() ? nullptr : &it->second;
}

bool SessionTable::remove(const net::FiveTuple& tuple) {
  if (sessions_.erase(tuple) == 0) return false;
  if (sessions_.empty()) {
    idle_floor_ = std::numeric_limits<sim::TimePoint>::max();
  }
  return true;
}

std::size_t SessionTable::expire_idle(sim::TimePoint now,
                                      sim::Duration idle_timeout) {
  // Every session is at most now - idle_floor_ idle: none can expire.
  if (now - idle_floor_ <= idle_timeout) return 0;
  std::size_t dropped = 0;
  sim::TimePoint floor = std::numeric_limits<sim::TimePoint>::max();
  // Tombstoned erase never moves other slots, so erasing the current
  // position and then advancing is safe.
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (now - it->second.last_active > idle_timeout) {
      sessions_.erase(it);
      ++dropped;
    } else {
      floor = std::min(floor, it->second.last_active);
    }
  }
  idle_floor_ = floor;
  return dropped;
}

std::size_t SessionTable::clear() noexcept {
  const std::size_t n = sessions_.size();
  sessions_.clear();
  idle_floor_ = std::numeric_limits<sim::TimePoint>::max();
  return n;
}

std::size_t SessionTable::count_for(net::ServiceId service) const {
  std::size_t n = 0;
  for (const auto& [tuple, session] : sessions_) {
    if (session.service == service) ++n;
  }
  return n;
}

std::size_t SessionTable::count_older_than(net::ServiceId service,
                                           sim::TimePoint now,
                                           sim::Duration age) const {
  std::size_t n = 0;
  for (const auto& [tuple, session] : sessions_) {
    if (session.service == service && now - session.created > age) ++n;
  }
  return n;
}

std::size_t SessionTable::remove_for(net::ServiceId service) {
  std::size_t dropped = 0;
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->second.service == service) {
      sessions_.erase(it);
      ++dropped;
    }
  }
  if (sessions_.empty()) {
    idle_floor_ = std::numeric_limits<sim::TimePoint>::max();
  }
  return dropped;
}

}  // namespace canal::proxy
