// Shared test utilities.
//
// FullSizeFlowTable is the reference for sim::FlowMemo: a direct-mapped
// table fixed at the memo's 4096-slot cap, which the growable memo must
// agree with on every lookup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace canal::testutil {

template <typename Key, typename Value = bool>
struct FullSizeFlowTable {
  static constexpr std::size_t kSlots = 4096;
  struct Slot {
    bool used = false;
    Key key{};
    std::uint64_t epoch = 0;
    Value value{};
  };
  std::vector<Slot> slots = std::vector<Slot>(kSlots);

  /// The value written for `key` at `epoch`, or nullptr.
  [[nodiscard]] const Value* find(const Key& key, std::uint64_t epoch) const {
    const Slot& slot = slots[std::hash<Key>{}(key) & (kSlots - 1)];
    return slot.used && slot.epoch == epoch && slot.key == key ? &slot.value
                                                              : nullptr;
  }
  void insert(const Key& key, std::uint64_t epoch, Value value = {}) {
    slots[std::hash<Key>{}(key) & (kSlots - 1)] = {true, key, epoch, value};
  }
};

/// `prefix` followed by `n`. Appending sidesteps operator+(const char*,
/// std::string&&), which GCC 12 inlines into a -Wrestrict false positive
/// (GCC PR 105329).
inline std::string numbered(const char* prefix, int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace canal::testutil
