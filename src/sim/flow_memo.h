// Direct-mapped per-flow memo (DESIGN.md §9, "Flow fastpath caches").
//
// Both flow fastpath caches — proxy::ProxyEngine's route/upstream memo and
// core::GatewayBackend's redirector memo — are a FlowMemo: a power-of-two
// slot array indexed by the low bits of the key's hash, one entry per
// slot, each stamped with the epoch it was written at. A lookup hits only
// an entry written at the caller's current epoch for the same key; an
// insert overwrites its slot. Callers' epochs only move forward, so a
// stale entry can never match again.
//
// The array is allocated on the first insert at kInitialSlots and grows
// toward kMaxSlots only while two live flows collide, so a proxy serving
// a handful of flows holds a handful of slots rather than kMaxSlots. The
// set of memoized flows is always exactly what a kMaxSlots table would
// hold, hence every hit and miss is the same as in that table:
//
//  - An insert doubles the table while its slot holds a live entry (the
//    current epoch) for a different key and the table is below the cap,
//    then writes the slot. An empty or stale slot is simply overwritten,
//    and so is the same key's entry.
//  - A rehash carries only live entries.
//  - Slot = hash mod size, and each size divides the next. Entries in
//    different slots stay in different slots after a doubling, so growth
//    never makes two live entries collide. Two keys sharing a slot of the
//    kMaxSlots table share one at every smaller size, so whenever the
//    full table would keep an entry, the smaller one holds it too, and a
//    live entry is evicted exactly when the full table would evict it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace canal::sim {

template <typename Key, typename Value, std::size_t kMaxSlots,
          typename Hash = std::hash<Key>>
class FlowMemo {
 public:
  static constexpr std::size_t kInitialSlots = 16;
  static_assert((kMaxSlots & (kMaxSlots - 1)) == 0 &&
                    kMaxSlots >= kInitialSlots,
                "kMaxSlots must be a power of two no smaller than 16");

  /// The value memoized for `key` at `epoch`, or nullptr.
  [[nodiscard]] const Value* find(const Key& key,
                                  std::uint64_t epoch) const noexcept {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[index(Hash{}(key), slots_.size())];
    return slot.stamp == stamp(epoch) && slot.key == key ? &slot.value
                                                         : nullptr;
  }

  /// Memoizes `value` for `key` at `epoch`, evicting whatever held its
  /// slot once the table cannot grow to separate two live flows.
  void insert(const Key& key, std::uint64_t epoch, const Value& value) {
    const std::size_t hash = Hash{}(key);
    if (slots_.empty()) slots_.resize(kInitialSlots);
    Slot* slot = &slots_[index(hash, slots_.size())];
    while (slots_.size() < kMaxSlots && slot->stamp == stamp(epoch) &&
           !(slot->key == key)) {
      grow(epoch);
      slot = &slots_[index(hash, slots_.size())];
    }
    *slot = Slot{key, stamp(epoch), value};
  }

  /// Slots allocated so far: 0 before the first insert, then a power of
  /// two between kInitialSlots and kMaxSlots.
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }

 private:
  struct Slot {
    Key key{};
    /// epoch + 1 of the write; value-initialized (0) = empty, which no
    /// epoch's stamp equals — so an empty slot is never live, even at
    /// epoch 0 for a value-initialized key.
    std::uint64_t stamp = 0;
    Value value{};
  };

  static std::uint64_t stamp(std::uint64_t epoch) noexcept {
    return epoch + 1;
  }
  static std::size_t index(std::size_t hash, std::size_t size) noexcept {
    return hash & (size - 1);
  }

  void grow(std::uint64_t epoch) {
    std::vector<Slot> next(slots_.size() * 2);
    for (const Slot& slot : slots_) {
      if (slot.stamp == stamp(epoch)) {
        next[index(Hash{}(slot.key), next.size())] = slot;
      }
    }
    slots_.swap(next);
  }

  std::vector<Slot> slots_;
};

}  // namespace canal::sim
