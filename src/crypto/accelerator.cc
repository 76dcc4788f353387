#include "crypto/accelerator.h"

#include <algorithm>
#include <utility>

namespace canal::crypto {

void AsymmetricAccelerator::submit(sim::Callback done) {
  PendingOp* op = ops_.acquire();
  op->submitted = loop_.now();
  op->done = std::move(done);
  if (mode_ == AccelMode::kSoftware) {
    cpu_.execute(model_.software_asym_cost, [this, op] { complete(op); });
    return;
  }

  batch_.push_back(op);
  if (batch_.size() >= model_.accel_batch_size) {
    flush_timer_.cancel();
    flush_batch();
  } else if (!flush_timer_.pending()) {
    flush_timer_ = loop_.schedule(model_.accel_flush_timeout,
                                  [this] { flush_batch(); });
  }
}

void AsymmetricAccelerator::flush_batch() {
  // A backlog larger than one batch (a burst) drains as back-to-back
  // batches.
  while (!batch_.empty()) {
    const std::size_t take = std::min(batch_.size(), model_.accel_batch_size);
    ++batches_flushed_;
    // The batch's lanes execute in parallel across available cores; each
    // op costs accel_per_op_cost of CPU.
    for (std::size_t i = 0; i < take; ++i) {
      PendingOp* op = batch_.front();
      batch_.pop_front();
      cpu_.execute(model_.accel_per_op_cost, [this, op] { complete(op); });
    }
  }
}

void AsymmetricAccelerator::complete(PendingOp* op) {
  ++completed_;
  op_latency_us_.record(sim::to_microseconds(loop_.now() - op->submitted));
  sim::Callback done = std::move(op->done);
  ops_.release(op);
  if (done) done();
}

}  // namespace canal::crypto
