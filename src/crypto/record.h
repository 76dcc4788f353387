// Record protection for an established session: ChaCha20 encryption with
// a SipHash-based MAC over sequence-numbered records (encrypt-then-MAC).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "crypto/chacha20.h"

namespace canal::crypto {

/// One direction of an established session: ChaCha20 + MAC records with
/// sequence-numbered nonces (encrypt-then-MAC).
class RecordChannel {
 public:
  explicit RecordChannel(Key256 key) : key_(key) {}

  /// Encrypts and authenticates one record.
  [[nodiscard]] std::string seal(std::string_view plaintext);

  /// Verifies and decrypts one record; nullopt on tamper or replay-skew.
  [[nodiscard]] std::optional<std::string> open(std::string_view record);

  [[nodiscard]] std::uint64_t sealed_records() const noexcept {
    return seal_seq_;
  }

 private:
  Key256 key_;
  std::uint64_t seal_seq_ = 0;
  std::uint64_t open_seq_ = 0;
};

}  // namespace canal::crypto
