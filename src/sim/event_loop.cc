#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace canal::sim {

std::uint32_t EventLoop::acquire_slot(Callback cb) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot].cb = std::move(cb);
    return slot;
  }
  slab_.push_back(Event{std::move(cb), 0});
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventLoop::enqueue(TimePoint when, std::uint32_t slot) {
  const HeapKey key{when, next_seq_++, slot, slab_[slot].generation};
  if (when == now_) {
    // Same-tick event: FIFO bucket, no heap sift. seq still drawn from the
    // global counter so pop order matches a pure heap exactly (see header).
    bucket_.push_back(key);
    return;
  }
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventHandle EventLoop::schedule_at(TimePoint when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint32_t slot = acquire_slot(std::move(cb));
  enqueue(when, slot);
  return EventHandle(this, slot, slab_[slot].generation);
}

void EventLoop::post_at(TimePoint when, Callback cb) {
  if (when < now_) when = now_;
  enqueue(when, acquire_slot(std::move(cb)));
}

bool EventLoop::run_key(const HeapKey& key) {
  // Move the payload out and recycle the slot before invoking: the callback
  // may schedule new events, which can reuse this slot or grow the slab.
  Event& ev = slab_[key.slot];
  Callback cb = std::move(ev.cb);
  free_slots_.push_back(key.slot);
  if (ev.generation != key.generation) return false;  // cancelled
  // Firing ends the event: its handle (and any copy) stops matching.
  ++ev.generation;
  cb();
  return true;
}

bool EventLoop::pop_and_run() {
  const HeapKey key = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  now_ = key.when;
  return run_key(key);
}

bool EventLoop::run_bucket_front() {
  return run_key(bucket_[bucket_cursor_++]);
}

std::size_t EventLoop::run() {
  std::size_t count = 0;
  for (;;) {
    // Heap entries keyed at now_ predate every bucket entry (smaller seq;
    // see header), so they drain first.
    if (!heap_.empty() && heap_.front().when <= now_) {
      if (pop_and_run()) ++count;
      continue;
    }
    if (bucket_cursor_ < bucket_.size()) {
      if (run_bucket_front()) ++count;
      continue;
    }
    if (bucket_cursor_ != 0) {
      bucket_.clear();
      bucket_cursor_ = 0;
    }
    if (heap_.empty()) break;
    if (pop_and_run()) ++count;  // advances now_
  }
  return count;
}

std::size_t EventLoop::run_until(TimePoint deadline) {
  std::size_t count = 0;
  for (;;) {
    if (!heap_.empty() && heap_.front().when <= now_) {
      if (pop_and_run()) ++count;
      continue;
    }
    if (bucket_cursor_ < bucket_.size()) {
      if (now_ > deadline) break;  // bucket entries run at exactly now_
      if (run_bucket_front()) ++count;
      continue;
    }
    if (bucket_cursor_ != 0) {
      bucket_.clear();
      bucket_cursor_ = 0;
    }
    if (heap_.empty() || heap_.front().when > deadline) break;
    if (pop_and_run()) ++count;
  }
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
