#include "crypto/keyserver.h"

#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/mac.h"

namespace canal::crypto {
namespace {

Nonce96 identity_nonce(const std::string& identity) {
  return derive_nonce(identity, 0);
}

}  // namespace

KeyServer::KeyServer(sim::EventLoop& loop, net::AzId az, std::size_t cores,
                     sim::Rng rng, CryptoCostModel model)
    : loop_(loop),
      az_(az),
      cpu_(loop, cores, sim::CpuCore::kNoHistory),
      rng_(rng),
      model_(model),
      accel_(loop, cpu_, AccelMode::kBatched, model) {
  // Master key lives only in memory; a restart regenerates it, which is
  // exactly the paper's flush-on-restart property.
  for (auto& b : master_key_) b = static_cast<std::uint8_t>(rng_.next());
}

void KeyServer::store_private_key(const std::string& identity,
                                  std::uint64_t private_key) {
  std::string plaintext(8, '\0');
  std::memcpy(plaintext.data(), &private_key, 8);
  encrypted_keys_[identity] =
      chacha20_apply(master_key_, identity_nonce(identity), plaintext);
}

bool KeyServer::has_key(const std::string& identity) const {
  return encrypted_keys_.contains(identity);
}

void KeyServer::establish_channel(const std::string& requester_id) {
  channels_.insert(requester_id);
}

bool KeyServer::has_channel(const std::string& requester_id) const {
  return channels_.contains(requester_id);
}

std::optional<std::uint64_t> KeyServer::decrypt_key(
    const std::string& identity) const {
  const auto it = encrypted_keys_.find(identity);
  if (it == encrypted_keys_.end()) return std::nullopt;
  const std::string plaintext =
      chacha20_apply(master_key_, identity_nonce(identity), it->second);
  std::uint64_t key = 0;
  std::memcpy(&key, plaintext.data(), 8);
  return key;
}

void KeyServer::handle_sign(const std::string& requester_id,
                            const std::string& identity,
                            std::string_view transcript, SignCallback done) {
  SignOp* op = ops_.acquire();
  op->done = std::move(done);
  const auto key = available_ && has_channel(requester_id)
                       ? decrypt_key(identity)
                       : std::nullopt;
  if (!key) {
    ++rejected_;
    loop_.post(0, [this, op] { finish(op, std::nullopt); });
    return;
  }
  op->key = *key;
  op->transcript.assign(transcript);
  // Request admission/unmarshalling cost, then the batched asymmetric op.
  cpu_.execute(model_.key_server_overhead, [this, op] {
    accel_.submit([this, op] {
      // The plaintext key exists only for the duration of this operation.
      const Signature sig = sign(op->key, op->transcript, rng_);
      ++served_;
      finish(op, sig);
    });
  });
}

void KeyServer::finish(SignOp* op, std::optional<Signature> sig) {
  SignCallback done = std::move(op->done);
  op->key = 0;
  ops_.release(op);
  done(sig);
}

void KeyServerClient::sign(std::string_view identity,
                           std::string_view transcript,
                           KeyServer::SignCallback done) {
  SignOp* op = ops_.acquire();
  op->transcript.assign(transcript);
  op->done = std::move(done);
  if (server_ != nullptr && server_->available()) {
    ++remote_;
    op->identity.assign(identity);
    // Request transit -> server handling -> response transit.
    loop_.post(config_.model.key_server_one_way, [this, op] {
      server_->handle_sign(
          config_.requester_id, op->identity, op->transcript,
          [this, op](std::optional<Signature> sig) {
            loop_.post(config_.model.key_server_one_way,
                       [this, op, sig] { finish(op, sig); });
          });
    });
    return;
  }
  local_fallback(op);
}

void KeyServerClient::local_fallback(SignOp* op) {
  if (!config_.local_private_key) {
    loop_.post(0, [this, op] { finish(op, std::nullopt); });
    return;
  }
  ++fallback_;
  local_cpu_.execute(config_.model.software_asym_cost, [this, op] {
    finish(op, canal::crypto::sign(*config_.local_private_key, op->transcript,
                                   rng_));
  });
}

void KeyServerClient::finish(SignOp* op, std::optional<Signature> sig) {
  KeyServer::SignCallback done = std::move(op->done);
  ops_.release(op);
  done(sig);
}

}  // namespace canal::crypto
