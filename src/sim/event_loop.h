// Discrete-event simulation core.
//
// A 4-ary min-heap scheduler over (time, sequence) keys. Ties are broken by
// insertion order so runs are deterministic. Events are arbitrary callables;
// higher-level components (CPU cores, links, timers) are built on top.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace canal::sim {

class EventLoop;

/// Handle used to cancel a scheduled event: the event's slab slot plus the
/// slot's generation when the event was scheduled. Firing or cancelling
/// bumps the slot's generation, so a handle whose event is gone — even if
/// its slot now holds a newer event — matches nothing. Cancelling is O(1);
/// the event's key stays in the heap and is skipped when popped.
///
/// A handle holds a raw pointer to its loop: cancel() and pending() must not
/// be called after the loop is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call repeatedly, on a fired
  /// event, or on a default-constructed handle.
  inline void cancel() noexcept;

  /// True if the event is still pending (not fired, not cancelled).
  [[nodiscard]] inline bool pending() const noexcept;

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, std::uint32_t slot, std::uint32_t generation)
      : loop_(loop), slot_(slot), generation_(generation) {}

  EventLoop* loop_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// The simulation event loop. Single-threaded and deterministic.
class EventLoop {
 public:
  using Callback = sim::Callback;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `when` (clamped to now()).
  /// Callers that never cancel use post_at(). Every scheduling call takes
  /// the callback by rvalue reference and relocates it once, into its slot.
  [[nodiscard]] EventHandle schedule_at(TimePoint when, Callback&& cb);

  /// Schedules `cb` to run `delay` after now().
  [[nodiscard]] EventHandle schedule(Duration delay, Callback&& cb) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  /// Fire-and-forget variant of schedule_at: no cancellation handle. Same
  /// sequence numbering as schedule_at, so swapping one for the other never
  /// moves an event.
  void post_at(TimePoint when, Callback&& cb);

  /// Fire-and-forget variant of schedule().
  void post(Duration delay, Callback&& cb) {
    post_at(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  /// Runs events until the queue empties. Returns the number of events run.
  std::size_t run();

  /// Runs events with time <= `deadline`, then advances now() to `deadline`.
  std::size_t run_until(TimePoint deadline);

  /// Runs events for `span` of simulated time from now().
  std::size_t run_for(Duration span) { return run_until(now_ + span); }

  /// Number of pending (possibly cancelled) events.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size() + (bucket_.size() - bucket_cursor_);
  }

  /// Earliest pending event time, or std::nullopt when the queue is empty.
  /// Cancelled events still count (they are skipped only when popped), so
  /// the value is a lower bound on the next *effective* event — which is
  /// exactly what a conservative shard scheduler needs (see shard.h).
  [[nodiscard]] std::optional<TimePoint> next_event_time() const noexcept {
    if (bucket_cursor_ < bucket_.size()) return now_;  // runs at exactly now_
    if (!heap_.empty()) return heap_.front().when;
    return std::nullopt;
  }

 private:
  // The heap sifts small (when, seq, slot) keys; the callback payloads
  // (~6x larger, with inline capture storage) sit in a slab indexed by
  // `slot` and are never moved by heap operations. Ordering is identical to
  // a direct heap of events: (when, seq) keys are unique and
  // insertion-ordered, so simulated behaviour is unchanged.
  //
  // Heap: 4-ary, stored level by level in `heap_`, so a key's children are
  // contiguous (one or two cache lines of 24-byte keys) and the tree is half
  // as deep as a binary heap. Push and pop move a hole instead of swapping:
  // each level costs one key copy, and the moving key is written once.
  //
  // Slab: fixed chunks of kChunkEvents events, so a slot's address never
  // changes once allocated. That lets run_key() invoke a callback where it
  // sits, even though the callback may schedule enough events to grow the
  // slab while it runs: growth adds a chunk and moves no event. Free slots
  // form a list threaded through the events themselves, so steady-state
  // scheduling touches no allocator. A fired slot returns to the list only
  // after its callback returns or throws, and its callback is destroyed
  // first: the callback is relocated exactly once, from the caller's
  // temporary into the slot.
  //
  // Same-timestamp batching: an event scheduled for `now_` while the loop
  // stands at `now_` skips the heap entirely and is appended to `bucket_`,
  // a FIFO drained before time advances. This is order-exact: while now_
  // == T no event with when == T can enter the heap (it lands in the
  // bucket), so every T-keyed heap entry predates — and has a smaller seq
  // than — every bucket entry, and draining heap-T-entries first, then the
  // bucket in append order, replays the exact (when, seq) order a pure
  // heap would have produced. The win is skipping two O(log n) sifts per
  // same-tick event — the dominant class once request fan-out chains post
  // zero-delay continuations.
  //
  // Cancellation: each slot carries a generation, copied into its key and
  // its handle when the event is scheduled. Firing or cancelling bumps the
  // slot's generation; a popped key whose generation no longer matches was
  // cancelled and is skipped. A cancelled slot is freed only when its key
  // pops, so a slot never holds two live keys.
  struct Event {
    Callback cb;
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;  // free-list link while the slot is free
  };
  struct HeapKey {
    TimePoint when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;  // fills the key's padding: still 24 bytes
  };
  static_assert(sizeof(HeapKey) == 24);
  static constexpr std::uint32_t kChunkEvents = 64;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static bool earlier(const HeapKey& a,
                                    const HeapKey& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  friend class EventHandle;

  [[nodiscard]] Event& event(std::uint32_t slot) noexcept {
    return chunks_[slot / kChunkEvents][slot % kChunkEvents];
  }
  [[nodiscard]] const Event& event(std::uint32_t slot) const noexcept {
    return chunks_[slot / kChunkEvents][slot % kChunkEvents];
  }

  std::uint32_t acquire_slot(Callback&& cb);
  void release_slot(std::uint32_t slot) noexcept;
  void add_chunk();
  void enqueue(TimePoint when, std::uint32_t slot);
  void heap_push(const HeapKey& key);
  HeapKey heap_pop() noexcept;
  bool run_key(HeapKey key);
  bool pop_and_run();
  bool run_bucket_front();

  [[nodiscard]] bool live(std::uint32_t slot,
                          std::uint32_t generation) const noexcept {
    return event(slot).generation == generation;
  }
  void cancel(std::uint32_t slot, std::uint32_t generation) noexcept {
    if (live(slot, generation)) ++event(slot).generation;
  }

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<HeapKey> heap_;
  std::vector<HeapKey> bucket_;      // FIFO of events at exactly now_
  std::size_t bucket_cursor_ = 0;    // next bucket entry to run
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
};

inline void EventHandle::cancel() noexcept {
  if (loop_ != nullptr) loop_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const noexcept {
  return loop_ != nullptr && loop_->live(slot_, generation_);
}

/// Repeating timer built on EventLoop. Fires `period` apart until stopped.
/// Must be destroyed before its loop (the destructor cancels the pending
/// tick).
class PeriodicTimer {
 public:
  PeriodicTimer(EventLoop& loop, Duration period, std::function<void()> tick)
      : loop_(loop), period_(period), tick_(std::move(tick)) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Schedules the first tick `initial_delay` from now.
  void start(Duration initial_delay = 0);

  /// Cancels future ticks.
  void stop() noexcept { handle_.cancel(); }

  [[nodiscard]] bool running() const noexcept { return handle_.pending(); }

 private:
  void arm(Duration delay);

  EventLoop& loop_;
  Duration period_;
  std::function<void()> tick_;
  EventHandle handle_;
};

}  // namespace canal::sim
