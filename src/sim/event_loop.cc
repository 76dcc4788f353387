#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace canal::sim {

void EventLoop::add_chunk() {
  const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkEvents);
  chunks_.push_back(std::make_unique_for_overwrite<Event[]>(kChunkEvents));
  Event* chunk = chunks_.back().get();
  // Thread the new slots onto the free list in ascending order.
  for (std::uint32_t i = 0; i < kChunkEvents; ++i) {
    chunk[i].next_free = i + 1 < kChunkEvents ? base + i + 1 : free_head_;
  }
  free_head_ = base;
}

std::uint32_t EventLoop::acquire_slot(Callback&& cb) {
  if (free_head_ == kNoSlot) add_chunk();
  const std::uint32_t slot = free_head_;
  Event& ev = event(slot);
  free_head_ = ev.next_free;
  ev.cb = std::move(cb);
  return slot;
}

void EventLoop::release_slot(std::uint32_t slot) noexcept {
  Event& ev = event(slot);
  ev.cb = nullptr;
  ev.next_free = free_head_;
  free_head_ = slot;
}

void EventLoop::heap_push(const HeapKey& key) {
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

EventLoop::HeapKey EventLoop::heap_pop() noexcept {
  const HeapKey top = heap_.front();
  const HeapKey last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Sift a hole from the root down to where `last` belongs.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  return top;
}

void EventLoop::enqueue(TimePoint when, std::uint32_t slot) {
  const HeapKey key{when, next_seq_++, slot, event(slot).generation};
  if (when == now_) {
    // Same-tick event: FIFO bucket, no heap sift. seq still drawn from the
    // global counter so pop order matches a pure heap exactly (see header).
    bucket_.push_back(key);
    return;
  }
  heap_push(key);
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

bool EventLoop::run_key(HeapKey key) {
  // `key` is a copy: the callback may grow bucket_ or heap_.
  Event& ev = event(key.slot);
  if (ev.generation != key.generation) {  // cancelled
    release_slot(key.slot);
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
  } release{this, key.slot};
  ev.cb();
  return true;
}

bool EventLoop::pop_and_run() {
  const HeapKey key = heap_pop();
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
