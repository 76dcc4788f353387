#include "crypto/record.h"

#include <cstring>
#include <span>

#include "crypto/mac.h"

namespace canal::crypto {

std::string RecordChannel::seal(std::string_view plaintext) {
  const Nonce96 nonce = derive_nonce("record", seal_seq_);
  std::string ciphertext = chacha20_apply(key_, nonce, plaintext);
  const Key256 mac_key = derive_key(
      std::string_view(reinterpret_cast<const char*>(key_.data()), key_.size()),
      "record-mac");
  std::string seq_and_ct(8, '\0');
  std::memcpy(seq_and_ct.data(), &seal_seq_, 8);
  seq_and_ct += ciphertext;
  const auto tag = mac256(mac_key, seq_and_ct);
  ++seal_seq_;

  std::string record;
  record.reserve(8 + 32 + ciphertext.size());
  record.append(seq_and_ct.data(), 8);
  record.append(reinterpret_cast<const char*>(tag.data()), tag.size());
  record.append(ciphertext);
  return record;
}

std::optional<std::string> RecordChannel::open(std::string_view record) {
  if (record.size() < 40) return std::nullopt;
  std::uint64_t seq = 0;
  std::memcpy(&seq, record.data(), 8);
  if (seq != open_seq_) return std::nullopt;  // strict ordering, no replay
  const std::string_view tag = record.substr(8, 32);
  const std::string_view ciphertext = record.substr(40);

  const Key256 mac_key = derive_key(
      std::string_view(reinterpret_cast<const char*>(key_.data()), key_.size()),
      "record-mac");
  std::string seq_and_ct(record.substr(0, 8));
  seq_and_ct += std::string(ciphertext);
  const auto expected = mac256(mac_key, seq_and_ct);
  if (!tags_equal(expected,
                  std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(tag.data()),
                      tag.size()))) {
    return std::nullopt;
  }
  const Nonce96 nonce = derive_nonce("record", seq);
  ++open_seq_;
  return chacha20_apply(key_, nonce, ciphertext);
}

}  // namespace canal::crypto
