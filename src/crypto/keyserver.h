// Multi-tenant shared key server for remote mTLS acceleration (§4.1.3).
//
// Holds tenant long-term private keys — encrypted in memory with ChaCha20
// under a master key, never on disk, decrypted only while serving a request
// from a verified requester over a pre-established secure channel. Requests
// run through a batched accelerator; because the server aggregates
// handshakes from many services, its batches fill quickly and avoid the
// partial-batch stall of local acceleration (Fig 25).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "crypto/accelerator.h"
#include "crypto/cert.h"
#include "crypto/chacha20.h"
#include "crypto/cost_model.h"
#include "net/ids.h"
#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"

namespace canal::crypto {

class KeyServer {
 public:
  KeyServer(sim::EventLoop& loop, net::AzId az, std::size_t cores,
            sim::Rng rng, CryptoCostModel model = {});

  [[nodiscard]] net::AzId az() const noexcept { return az_; }
  [[nodiscard]] bool available() const noexcept { return available_; }
  void set_available(bool available) noexcept { available_ = available; }

  /// Registers a tenant private key; stored ChaCha20-encrypted in memory.
  void store_private_key(const std::string& identity,
                         std::uint64_t private_key);
  [[nodiscard]] bool has_key(const std::string& identity) const;

  /// Establishes the pre-shared secure channel for a requester; all
  /// subsequent requests from that requester ride on it (no per-request
  /// TLS handshake).
  void establish_channel(const std::string& requester_id);
  [[nodiscard]] bool has_channel(const std::string& requester_id) const;

  using SignCallback = sim::BasicCallback<std::optional<Signature>>;

  /// Serves a transcript-signing request arriving *at the server* (the
  /// client stub models the network). Rejects unknown requesters/identities.
  /// The transcript is copied into pooled request state, so the caller's
  /// bytes need only live until this returns.
  void handle_sign(const std::string& requester_id, const std::string& identity,
                   std::string_view transcript, SignCallback done);

  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return served_;
  }
  [[nodiscard]] std::uint64_t requests_rejected() const noexcept {
    return rejected_;
  }
  [[nodiscard]] const AsymmetricAccelerator& accelerator() const noexcept {
    return accel_;
  }
  [[nodiscard]] sim::CpuSet& cpu() noexcept { return cpu_; }

 private:
  /// One in-flight request. Pooled, so the transcript buffer keeps its
  /// capacity across requests; continuations capture only {this, op}.
  struct SignOp {
    std::uint64_t key = 0;
    std::string transcript;
    SignCallback done;
  };

  [[nodiscard]] std::optional<std::uint64_t> decrypt_key(
      const std::string& identity) const;
  /// Releases `op` and hands `sig` to its continuation.
  void finish(SignOp* op, std::optional<Signature> sig);

  sim::EventLoop& loop_;
  net::AzId az_;
  sim::CpuSet cpu_;
  sim::Rng rng_;
  CryptoCostModel model_;
  AsymmetricAccelerator accel_;
  Key256 master_key_{};
  bool available_ = true;
  std::unordered_map<std::string, std::string> encrypted_keys_;
  std::unordered_set<std::string> channels_;
  sim::Pool<SignOp> ops_;
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Requester-side stub: adds network transit, falls back to local software
/// crypto when the in-AZ key server is unavailable (Appendix A).
class KeyServerClient {
 public:
  struct Config {
    std::string requester_id;
    CryptoCostModel model;
    /// Local private key for the fallback path (and for keyless-mode
    /// customers who never enroll a key with the cloud).
    std::optional<std::uint64_t> local_private_key;
  };

  KeyServerClient(sim::EventLoop& loop, sim::CpuSet& local_cpu, Config config,
                  sim::Rng rng)
      : loop_(loop),
        local_cpu_(local_cpu),
        config_(std::move(config)),
        rng_(rng) {}

  void attach_server(KeyServer* server) { server_ = server; }

  /// Signs `transcript` for `identity`: remotely via the key server when
  /// reachable, else locally in software. `done` receives nullopt only if
  /// both paths are impossible.
  void sign(std::string_view identity, std::string_view transcript,
            KeyServer::SignCallback done);

  [[nodiscard]] std::uint64_t remote_signs() const noexcept { return remote_; }
  [[nodiscard]] std::uint64_t fallback_signs() const noexcept {
    return fallback_;
  }

 private:
  /// One in-flight request; the identity and transcript travel with it to
  /// the server. Pooled like KeyServer::SignOp.
  struct SignOp {
    std::string identity;
    std::string transcript;
    KeyServer::SignCallback done;
  };

  void local_fallback(SignOp* op);
  /// Releases `op` and hands `sig` to its continuation.
  void finish(SignOp* op, std::optional<Signature> sig);

  sim::EventLoop& loop_;
  sim::CpuSet& local_cpu_;
  Config config_;
  sim::Rng rng_;
  KeyServer* server_ = nullptr;
  sim::Pool<SignOp> ops_;
  std::uint64_t remote_ = 0;
  std::uint64_t fallback_ = 0;
};

}  // namespace canal::crypto
