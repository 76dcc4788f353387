// Discrete-event simulation core.
//
// A radix queue keyed on event time. Simulated time never runs backwards:
// nothing is scheduled before now(), so the future-event list is a monotone
// priority queue, which a radix heap serves with O(1) push, amortised
// O(log C) pop and no key comparisons (Ahuja, Mehlhorn, Orlin & Tarjan,
// J. ACM 1990). Events with equal times run in the order they were
// scheduled, so runs are deterministic. Events are arbitrary callables;
// higher-level components (CPU cores, links, timers) are built on top.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
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
/// the event stays queued and is skipped when it pops.
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
  /// queue as schedule_at, so swapping one for the other never moves an
  /// event.
  void post_at(TimePoint when, Callback&& cb);

  /// Fire-and-forget variant of schedule().
  void post(Duration delay, Callback&& cb) {
    post_at(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  /// Runs events until the queue empties. Returns the number of events run.
  std::size_t run() { return drain(kForever); }

  /// Runs events with time <= `deadline`, then advances now() to `deadline`.
  std::size_t run_until(TimePoint deadline);

  /// Runs events for `span` of simulated time from now().
  std::size_t run_for(Duration span) { return run_until(now_ + span); }

  /// Number of pending (possibly cancelled) events.
  [[nodiscard]] std::size_t pending_events() const noexcept { return size_; }

  /// Earliest pending event time, or std::nullopt when the queue is empty.
  /// Cancelled events still count (they are skipped only when popped), so
  /// the value is a lower bound on the next *effective* event — which is
  /// exactly what a conservative shard scheduler needs (see shard.h).
  [[nodiscard]] std::optional<TimePoint> next_event_time() const noexcept {
    if (occupied_ == 0) return std::nullopt;
    return buckets_[static_cast<std::size_t>(std::countr_zero(occupied_))].min;
  }

 private:
  // Radix queue. `last_` is the time of the minimum found at the last
  // re-bucketing. Bucket b > 0 holds the queued events whose `when` first
  // differs from `last_` at bit b-1, i.e. bit_width(when ^ last_) == b;
  // bucket 0 is the FIFO of events at exactly `last_`. Every event in
  // bucket b is earlier than every event in a higher bucket. Each bucket is
  // a FIFO linked through its events' `next` and keeps its head, its tail
  // and its least `when`; bit b of `occupied_` says bucket b is non-empty.
  //
  // Pop: bucket 0's head, while it has one. When bucket 0 empties, the
  // lowest non-empty bucket k (one countr_zero) holds the earliest event.
  // `last_` moves to that bucket's minimum and the bucket's events are
  // re-bucketed in order (a lone event is simply popped). They all agree
  // with the new `last_` from bit k-1 up, so each lands in a bucket below
  // k, while every event above k keeps its bucket. An event thus moves at
  // most 63 times in its life.
  //
  // Invariant last_ <= now(): `last_` only moves to an event about to run.
  // pop_due() compares the lowest bucket's minimum with its deadline before
  // re-bucketing and stops if the minimum is past it, so `last_` never
  // passes a deadline. Every post_at() (clamped to now()) therefore has
  // when >= last_, and bit_width(when ^ last_) is its bucket. Times start
  // at 0 and never run backwards, so they are non-negative and that width
  // is at most 63: 64 buckets suffice.
  //
  // Ties: equal `when` => same bucket => FIFO. A bucket index depends on
  // `when` and `last_` only, and re-bucketing keeps the index of every
  // bucket above k, so two events with equal `when` always share a bucket.
  // Buckets are appended to in scheduling order, and a re-bucketed bucket's
  // events land, in order, in buckets below k, which are all empty then. So
  // equal times run in scheduling order: the (when, sequence) order of a
  // comparison heap, with no sequence number. Same-tick batching is bucket
  // 0: an event posted for now() == last_ is appended there and runs
  // before time advances, with no re-bucketing.
  //
  // Slab: fixed chunks of kChunkEvents events, so a slot's address never
  // changes once allocated. That lets run_slot() invoke a callback where it
  // sits, even though the callback may schedule enough events to grow the
  // slab while it runs: growth adds a chunk and moves no event. Free slots
  // form a list threaded through the same `next` link as the buckets (a
  // slot is free, queued or running, never two at once), so steady-state
  // scheduling touches no allocator and the queue owns no other storage. A
  // fired slot returns to the list only after its callback returns or
  // throws, and its callback is destroyed first: the callback is relocated
  // exactly once, from the caller's temporary into the slot.
  //
  // Cancellation: a slot's generation is even while the slot is free or
  // holds a pending event, and the event's handle copies it. Cancelling or
  // firing makes it odd, so the handle stops matching; releasing the slot
  // makes it even again, one step on. A queued event with an odd generation
  // was cancelled and is skipped when it pops; its slot is freed then, so a
  // slot never sits in a bucket twice.
  struct Event {
    Callback cb;
    TimePoint when = 0;
    std::uint32_t generation = 0;  // even: free or pending; odd: cancelled
    std::uint32_t next = 0;        // bucket link, or free-list link
  };
  struct Bucket {
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    TimePoint min = 0;  // least `when` in the bucket, cancelled ones included
  };
  static constexpr std::uint32_t kChunkEvents = 64;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::size_t kBuckets = 64;
  static constexpr TimePoint kForever = std::numeric_limits<TimePoint>::max();

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
  void enqueue(TimePoint when, std::uint32_t slot) noexcept;
  void append(std::uint32_t slot, TimePoint when) noexcept;
  void rebucket(std::size_t k) noexcept;
  /// Unlinks the earliest event if it is due by `deadline`, moving `last_`
  /// to its time; kNoSlot otherwise.
  std::uint32_t pop_due(TimePoint deadline) noexcept;
  bool run_slot(std::uint32_t slot);
  std::size_t drain(TimePoint deadline);

  [[nodiscard]] bool live(std::uint32_t slot,
                          std::uint32_t generation) const noexcept {
    return event(slot).generation == generation;
  }
  void cancel(std::uint32_t slot, std::uint32_t generation) noexcept {
    if (live(slot, generation)) ++event(slot).generation;
  }

  TimePoint now_ = 0;
  TimePoint last_ = 0;
  std::uint64_t occupied_ = 0;
  std::size_t size_ = 0;
  std::array<Bucket, kBuckets> buckets_{};
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
