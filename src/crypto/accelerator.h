// Asymmetric-crypto execution engines.
//
// Three ways a handshake's expensive modular exponentiation can run:
//   kSoftware — plain CPU cost (old instance types without QAT/AVX-512),
//   kBatched  — hardware batch engine: 8-slot buffer, flushes when full or
//               after a 1 ms timeout. Reproduces the Fig 25 pathology: fewer
//               than 8 concurrent new connections => every op waits out the
//               flush timer.
// The remote key server (keyserver.h) wraps a kBatched engine behind an RPC.
#pragma once

#include <cstdint>

#include "crypto/cost_model.h"
#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/ring_deque.h"
#include "sim/stats.h"

namespace canal::crypto {

enum class AccelMode : std::uint8_t { kSoftware, kBatched };

/// Completes asymmetric operations with modeled latency, invoking the
/// completion callback on the simulation event loop.
class AsymmetricAccelerator {
 public:
  AsymmetricAccelerator(sim::EventLoop& loop, sim::CpuSet& cpu, AccelMode mode,
                        CryptoCostModel model = {})
      : loop_(loop), cpu_(cpu), mode_(mode), model_(model) {}

  AsymmetricAccelerator(const AsymmetricAccelerator&) = delete;
  AsymmetricAccelerator& operator=(const AsymmetricAccelerator&) = delete;

  /// Submits one asymmetric operation; `done` fires at modeled completion.
  void submit(sim::Callback done);

  [[nodiscard]] AccelMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t batches_flushed() const noexcept {
    return batches_flushed_;
  }
  /// Per-op latency from submit to completion (microseconds).
  [[nodiscard]] const sim::Histogram& op_latency_us() const noexcept {
    return op_latency_us_;
  }

 private:
  // Ops live in a pool and CPU jobs capture only {this, op}: a job that
  // captured the op's Callback itself would outgrow the job's inline
  // storage and allocate.
  struct PendingOp {
    sim::TimePoint submitted = 0;
    sim::Callback done;
  };

  void flush_batch();
  void complete(PendingOp* op);

  sim::EventLoop& loop_;
  sim::CpuSet& cpu_;
  AccelMode mode_;
  CryptoCostModel model_;
  sim::Pool<PendingOp> ops_;
  sim::RingDeque<PendingOp*> batch_;
  sim::EventHandle flush_timer_;
  std::uint64_t completed_ = 0;
  std::uint64_t batches_flushed_ = 0;
  sim::Histogram op_latency_us_;
};

}  // namespace canal::crypto
