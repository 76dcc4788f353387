// Move-only callables with inline storage for simulator continuations.
//
// The event loop and CPU cores run millions of one-shot continuations per
// simulated second of a large run; storing each in a std::function costs a
// heap allocation whenever the capture exceeds the library's tiny SBO
// buffer (two pointers on libstdc++). sim::BasicCallback keeps captures up
// to kInlineSize bytes inline in the owning record itself and only falls
// back to the heap for oversized or throwing-move callables, so
// steady-state scheduling performs no allocations beyond the event slab's
// own storage.
//
// sim::Callback is the `void()` case every event and CPU job uses; the
// argument-taking forms carry completions that deliver a value (a key
// server's signature) or a continuation (a handshake executor's `done`).
//
// Only wall-clock behaviour changes: invocation order, results, and all
// simulated timestamps are unaffected.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace canal::sim {

/// A move-only `void(Args...)` callable. Captures up to kInlineSize bytes
/// (with nothrow move) are stored inline; larger callables are
/// heap-allocated. A BasicCallback is itself larger than kInlineSize, so a
/// lambda that captures one by value always lands on the heap: park the
/// inner callback in pooled state and capture a pointer to it instead.
template <typename... Args>
class BasicCallback {
 public:
  /// Inline capture budget. Sized for the dataplane hot-path lambdas
  /// (shared state pointer + a handful of PODs + a nested completion).
  static constexpr std::size_t kInlineSize = 120;

  BasicCallback() noexcept = default;
  BasicCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, BasicCallback> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<void, D&, Args...>>>
  BasicCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
  }

  BasicCallback(BasicCallback&& other) noexcept { take(other); }

  BasicCallback& operator=(BasicCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  BasicCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  BasicCallback(const BasicCallback&) = delete;
  BasicCallback& operator=(const BasicCallback&) = delete;

  ~BasicCallback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()(Args... args) {
    ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage, Args&&... args);
    /// Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static const Ops* inline_ops() noexcept {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) {
          (*static_cast<D*>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          D* from = static_cast<D*>(src);
          ::new (dst) D(std::move(*from));
          from->~D();
        },
        [](void* s) noexcept { static_cast<D*>(s)->~D(); },
    };
    return &ops;
  }

  template <typename D>
  static const Ops* heap_ops() noexcept {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) {
          (**static_cast<D**>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          ::new (dst) D*(*static_cast<D**>(src));
        },
        [](void* s) noexcept { delete *static_cast<D**>(s); },
    };
    return &ops;
  }

  void take(BasicCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// The `void()` continuation every event and CPU job carries.
using Callback = BasicCallback<>;

}  // namespace canal::sim
