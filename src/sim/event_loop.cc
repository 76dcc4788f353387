#include "sim/event_loop.h"

#include <bit>
#include <utility>

namespace canal::sim {

void EventLoop::add_chunk() {
  const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkEvents);
  chunks_.push_back(std::make_unique_for_overwrite<Event[]>(kChunkEvents));
  Event* chunk = chunks_.back().get();
  // Thread the new slots onto the free list in ascending order.
  for (std::uint32_t i = 0; i < kChunkEvents; ++i) {
    chunk[i].next = i + 1 < kChunkEvents ? base + i + 1 : free_head_;
  }
  free_head_ = base;
}

std::uint32_t EventLoop::acquire_slot(Callback&& cb) {
  if (free_head_ == kNoSlot) add_chunk();
  const std::uint32_t slot = free_head_;
  Event& ev = event(slot);
  free_head_ = ev.next;
  ev.cb = std::move(cb);
  return slot;
}

void EventLoop::release_slot(std::uint32_t slot) noexcept {
  Event& ev = event(slot);
  ev.cb = nullptr;
  ++ev.generation;  // odd (cancelled or fired) -> even (free)
  ev.next = free_head_;
  free_head_ = slot;
}

void EventLoop::append(std::uint32_t slot, TimePoint when) noexcept {
  const auto k = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(when ^ last_)));
  Bucket& bucket = buckets_[k];
  const std::uint64_t bit = std::uint64_t{1} << k;
  if ((occupied_ & bit) != 0) {
    event(bucket.tail).next = slot;
    if (when < bucket.min) bucket.min = when;
  } else {
    occupied_ |= bit;
    bucket.head = slot;
    bucket.min = when;
  }
  bucket.tail = slot;
}

void EventLoop::enqueue(TimePoint when, std::uint32_t slot) noexcept {
  event(slot).when = when;
  append(slot, when);
  ++size_;
}

void EventLoop::rebucket(std::size_t k) noexcept {
  const Bucket bucket = buckets_[k];
  occupied_ &= ~(std::uint64_t{1} << k);
  // In order, so equal times keep their FIFO order (see header). Every
  // event lands in a bucket below k.
  for (std::uint32_t slot = bucket.head;;) {
    const Event& ev = event(slot);
    const std::uint32_t next = ev.next;
    append(slot, ev.when);
    if (slot == bucket.tail) break;
    slot = next;
  }
}

EventHandle EventLoop::schedule_at(TimePoint when, Callback&& cb) {
  if (when < now_) when = now_;
  const std::uint32_t slot = acquire_slot(std::move(cb));
  enqueue(when, slot);
  return EventHandle(this, slot, event(slot).generation);
}

void EventLoop::post_at(TimePoint when, Callback&& cb) {
  if (when < now_) when = now_;
  enqueue(when, acquire_slot(std::move(cb)));
}

bool EventLoop::run_slot(std::uint32_t slot) {
  Event& ev = event(slot);
  if ((ev.generation & 1) != 0) {  // cancelled
    release_slot(slot);
    return false;
  }
  // Firing ends the event: its handle (and any copy) stops matching.
  ++ev.generation;
  // Invoke in place: chunks never move, and the slot stays off the free
  // list until the callback has returned or thrown.
  struct Release {
    EventLoop* loop;
    std::uint32_t slot;
    ~Release() { loop->release_slot(slot); }
  } release{this, slot};
  ev.cb();
  return true;
}

std::uint32_t EventLoop::pop_due(TimePoint deadline) noexcept {
  if ((occupied_ & 1) != 0) {
    if (last_ > deadline) return kNoSlot;  // bucket 0 runs at last_ == now_
  } else {
    if (occupied_ == 0) return kNoSlot;
    const auto k = static_cast<std::size_t>(std::countr_zero(occupied_));
    Bucket& lowest = buckets_[k];
    if (lowest.min > deadline) return kNoSlot;
    last_ = lowest.min;
    if (lowest.head == lowest.tail) {  // a lone event needs no re-bucketing
      occupied_ &= ~(std::uint64_t{1} << k);
      --size_;
      return lowest.head;
    }
    rebucket(k);
  }
  Bucket& front = buckets_[0];
  const std::uint32_t slot = front.head;
  if (slot == front.tail) {
    occupied_ &= ~std::uint64_t{1};
  } else {
    front.head = event(slot).next;
  }
  --size_;
  return slot;
}

std::size_t EventLoop::drain(TimePoint deadline) {
  std::size_t count = 0;
  // The queue is consistent before each callback runs, so the callback may
  // schedule and cancel freely.
  for (std::uint32_t slot; (slot = pop_due(deadline)) != kNoSlot;) {
    now_ = last_;
    if (run_slot(slot)) ++count;
  }
  return count;
}

std::size_t EventLoop::run_until(TimePoint deadline) {
  const std::size_t count = drain(deadline);
  if (now_ < deadline) now_ = deadline;
  return count;
}

void PeriodicTimer::start(Duration initial_delay) {
  stop();
  arm(initial_delay);
}

void PeriodicTimer::arm(Duration delay) {
  handle_ = loop_.schedule(delay, [this] {
    tick_();
    arm(period_);
  });
}

}  // namespace canal::sim
