// Flat hot-path containers (DESIGN.md §14).
//
// Three replacements for node-based std:: containers on per-request paths:
//
//  - FlatHashMap: open-addressing hash table — one contiguous slot array,
//    linear probing, tombstoned erase. Lookups touch one cache line in the
//    common case instead of chasing bucket nodes, and the table performs
//    zero allocations between rehashes. Iteration order is a deterministic
//    function of the insert/erase history (same inputs, same order — the
//    determinism gate holds) but is NOT sorted; use it only where iteration
//    order cannot reach simulated results.
//  - FlatOrderedMap / FlatOrderedSet: sorted vectors with binary-search
//    lookup. Iteration order is exactly std::map/std::set's, so these are
//    drop-in for hot tables whose *iteration* feeds simulated results.
//    Inserts are O(n) — fine for tables built at setup time and read per
//    request. Note: unlike std::map, insertion invalidates references to
//    mapped values; wrap values in unique_ptr where stable addresses are
//    cached (see telemetry::MetricsRegistry).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace canal::sim {

/// Transparent string hash: lets FlatHashMap<std::string, V, StringHash>
/// look keys up by std::string_view without materializing a std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

template <typename Key, typename T, typename Hash = std::hash<Key>,
          typename KeyEqual = std::equal_to<>>
class FlatHashMap {
 public:
  using value_type = std::pair<Key, T>;

  template <bool Const>
  class Iterator {
   public:
    using Parent = std::conditional_t<Const, const FlatHashMap, FlatHashMap>;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iterator() = default;

    reference operator*() const { return *map_->slots_[index_]; }
    pointer operator->() const { return &*map_->slots_[index_]; }
    Iterator& operator++() {
      ++index_;
      skip();
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.index_ != b.index_;
    }

   private:
    friend class FlatHashMap;
    Iterator(Parent* map, std::size_t index) : map_(map), index_(index) {
      skip();
    }
    void skip() {
      while (index_ < map_->ctrl_.size() &&
             map_->ctrl_[index_] != kFull) {
        ++index_;
      }
    }
    Parent* map_ = nullptr;
    std::size_t index_ = 0;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  FlatHashMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, ctrl_.size()); }
  [[nodiscard]] const_iterator begin() const {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, ctrl_.size());
  }

  /// Heterogeneous lookup: any K2 the hash/equality accept (e.g. a
  /// string_view against string keys via StringHash).
  template <typename K2>
  iterator find(const K2& key) {
    const std::size_t slot = find_slot(key);
    return slot == kNpos ? end() : iterator(this, slot);
  }
  template <typename K2>
  [[nodiscard]] const_iterator find(const K2& key) const {
    const std::size_t slot = find_slot(key);
    return slot == kNpos ? end() : const_iterator(this, slot);
  }
  template <typename K2>
  [[nodiscard]] bool contains(const K2& key) const {
    return find_slot(key) != kNpos;
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    reserve_for_insert();
    auto [slot, inserted] = insert_slot(key);
    if (inserted) {
      slots_[slot].emplace(key, T(std::forward<Args>(args)...));
    }
    return {iterator(this, slot), inserted};
  }

  std::pair<iterator, bool> insert(value_type value) {
    reserve_for_insert();
    auto [slot, inserted] = insert_slot(value.first);
    if (inserted) slots_[slot].emplace(std::move(value));
    return {iterator(this, slot), inserted};
  }

  T& operator[](const Key& key) { return try_emplace(key).first->second; }

  /// Tombstones the slot so probe chains through it stay intact; the slot
  /// is reused by a later insert that probes across it.
  template <typename K2>
  std::size_t erase(const K2& key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNpos) return 0;
    erase_slot(slot);
    return 1;
  }

  void erase(iterator it) { erase_slot(it.index_); }

  void clear() noexcept {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) slots_[i].reset();
      ctrl_[i] = kEmpty;
    }
    size_ = 0;
    filled_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = ctrl_.size();
    while (cap == 0 || n * 8 >= cap * 7) cap = cap == 0 ? 8 : cap * 2;
    if (cap > ctrl_.size()) rehash(cap);
  }

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return ctrl_.size();
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTombstone = 2;
  static constexpr std::uint8_t kUnsettled = 3;  // only inside a purge
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// splitmix64 finalizer: std::hash for integers is the identity on
  /// libstdc++, which clusters badly under linear probing with the
  /// power-of-two mask. Deterministic, so table layout is reproducible.
  template <typename K2>
  [[nodiscard]] std::size_t mix(const K2& key) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(hash_(key));
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }

  template <typename K2>
  [[nodiscard]] std::size_t find_slot(const K2& key) const {
    if (ctrl_.empty()) return kNpos;
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = mix(key) & mask;
    for (;;) {
      if (ctrl_[i] == kEmpty) return kNpos;
      if (ctrl_[i] == kFull && eq_(slots_[i]->first, key)) return i;
      i = (i + 1) & mask;
    }
  }

  /// Empties a full slot. It becomes a tombstone only when a probe chain
  /// may run through it: if the next slot is empty, no chain crosses this
  /// one, so it — and the run of tombstones just before it — go back to
  /// empty. Inserts land where they would have landed on the tombstones
  /// (the first tombstone or empty slot on the probe run), but the cleared
  /// slots stop counting against the load ceiling, so insert/erase churn
  /// purges (purge_tombstones) far less often.
  void erase_slot(std::size_t slot) {
    slots_[slot].reset();
    --size_;
    const std::size_t mask = ctrl_.size() - 1;
    if (ctrl_[(slot + 1) & mask] != kEmpty) {
      ctrl_[slot] = kTombstone;
      return;
    }
    ctrl_[slot] = kEmpty;
    --filled_;
    for (std::size_t i = (slot - 1) & mask; ctrl_[i] == kTombstone;
         i = (i - 1) & mask) {
      ctrl_[i] = kEmpty;
      --filled_;
    }
  }

  /// Finds the slot for `key`, reusing the first tombstone crossed when the
  /// key is absent. Caller has ensured capacity. Returns (slot, inserted).
  std::pair<std::size_t, bool> insert_slot(const Key& key) {
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = mix(key) & mask;
    std::size_t tombstone = kNpos;
    for (;;) {
      if (ctrl_[i] == kEmpty) {
        std::size_t target = i;
        if (tombstone != kNpos) {
          target = tombstone;
        } else {
          ++filled_;
        }
        ctrl_[target] = kFull;
        ++size_;
        return {target, true};
      }
      if (ctrl_[i] == kTombstone) {
        if (tombstone == kNpos) tombstone = i;
      } else if (eq_(slots_[i]->first, key)) {
        return {i, false};
      }
      i = (i + 1) & mask;
    }
  }

  void reserve_for_insert() {
    if (ctrl_.empty()) {
      rehash(8);
      return;
    }
    // filled_ counts full + tombstoned slots: both lengthen probe chains,
    // so both count against the 7/8 load ceiling. A table dominated by
    // tombstones rehashes in place (same capacity) to purge them.
    if ((filled_ + 1) * 8 >= ctrl_.size() * 7) {
      const std::size_t cap = (size_ + 1) * 8 >= ctrl_.size() * 7
                                  ? ctrl_.size() * 2
                                  : ctrl_.size();
      rehash(cap);
    }
  }

  void rehash(std::size_t new_cap) {
    if (new_cap == ctrl_.size()) {
      purge_tombstones();
      return;
    }
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<std::optional<value_type>> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, kEmpty);
    // resize (not assign): in-place default construction keeps move-only
    // mapped types (unique_ptr values) usable.
    slots_.clear();
    slots_.resize(new_cap);
    size_ = 0;
    filled_ = 0;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      auto [slot, inserted] = insert_slot(old_slots[i]->first);
      slots_[slot] = std::move(old_slots[i]);
      (void)inserted;
    }
  }

  /// Same-capacity rehash in the existing arrays, so insert/erase churn
  /// never allocates: tombstones become empty and every entry moves to the
  /// first free slot of its probe run. Entries settle in slot order; one
  /// whose target still holds an unsettled entry swaps with it, and the
  /// displaced entry is placed next. A settled slot never moves again, so
  /// every entry ends with an unbroken run of full slots from its home.
  void purge_tombstones() {
    const std::size_t mask = ctrl_.size() - 1;
    for (std::uint8_t& c : ctrl_) c = c == kFull ? kUnsettled : kEmpty;
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      while (ctrl_[i] == kUnsettled) {
        // Stops at i at the latest: i itself is unsettled.
        std::size_t target = mix(slots_[i]->first) & mask;
        while (ctrl_[target] == kFull) target = (target + 1) & mask;
        if (target == i) {
          ctrl_[i] = kFull;
        } else if (ctrl_[target] == kEmpty) {
          slots_[target] = std::move(slots_[i]);
          slots_[i].reset();
          ctrl_[target] = kFull;
          ctrl_[i] = kEmpty;
        } else {
          std::swap(slots_[i], slots_[target]);
          ctrl_[target] = kFull;
        }
      }
    }
    filled_ = size_;
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<std::optional<value_type>> slots_;
  std::size_t size_ = 0;
  std::size_t filled_ = 0;  // full + tombstoned
  Hash hash_;
  KeyEqual eq_;
};

/// Sorted-vector map: binary-search lookup, std::map iteration order.
template <typename Key, typename T, typename Compare = std::less<Key>>
class FlatOrderedMap {
 public:
  using value_type = std::pair<Key, T>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatOrderedMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  iterator lower_bound(const Key& key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            EntryLess{cmp_});
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            EntryLess{cmp_});
  }

  iterator find(const Key& key) {
    auto it = lower_bound(key);
    return it != entries_.end() && !cmp_(key, it->first) ? it
                                                         : entries_.end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    auto it = lower_bound(key);
    return it != entries_.end() && !cmp_(key, it->first) ? it
                                                         : entries_.end();
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != entries_.end();
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != entries_.end() && !cmp_(key, it->first)) return {it, false};
    it = entries_.emplace(it, std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  std::pair<iterator, bool> insert(value_type value) {
    auto it = lower_bound(value.first);
    if (it != entries_.end() && !cmp_(value.first, it->first)) {
      return {it, false};
    }
    it = entries_.insert(it, std::move(value));
    return {it, true};
  }

  T& operator[](const Key& key) { return try_emplace(key).first->second; }

  std::size_t erase(const Key& key) {
    auto it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }
  iterator erase(iterator it) { return entries_.erase(it); }

  void clear() noexcept { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

 private:
  struct EntryLess {
    Compare cmp;
    bool operator()(const value_type& e, const Key& k) const {
      return cmp(e.first, k);
    }
  };

  std::vector<value_type> entries_;
  Compare cmp_;
};

/// Sorted-vector set: binary-search lookup, std::set iteration order.
template <typename Key, typename Compare = std::less<Key>>
class FlatOrderedSet {
 public:
  using const_iterator = typename std::vector<Key>::const_iterator;

  FlatOrderedSet() = default;

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  [[nodiscard]] const_iterator begin() const { return values_.begin(); }
  [[nodiscard]] const_iterator end() const { return values_.end(); }

  [[nodiscard]] bool contains(const Key& key) const {
    auto it = std::lower_bound(values_.begin(), values_.end(), key, cmp_);
    return it != values_.end() && !cmp_(key, *it);
  }

  std::pair<const_iterator, bool> insert(Key key) {
    auto it = std::lower_bound(values_.begin(), values_.end(), key, cmp_);
    if (it != values_.end() && !cmp_(key, *it)) return {it, false};
    it = values_.insert(it, std::move(key));
    return {it, true};
  }

  std::size_t erase(const Key& key) {
    auto it = std::lower_bound(values_.begin(), values_.end(), key, cmp_);
    if (it == values_.end() || cmp_(key, *it)) return 0;
    values_.erase(it);
    return 1;
  }

  void clear() noexcept { values_.clear(); }
  void reserve(std::size_t n) { values_.reserve(n); }

 private:
  std::vector<Key> values_;
  Compare cmp_;
};

}  // namespace canal::sim
