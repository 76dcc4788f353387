// Shared test utilities.
//
// MtlsFixture centralises the CA / keypair / EndpointConfig setup that
// every mTLS handshake test needs: one certificate authority, a client
// and a server keypair, and ready-made endpoint configs whose signers
// borrow the fixture's RNG. The fixture must outlive any handshake built
// from its configs (the signer lambdas capture `this`).
//
// FullSizeFlowTable is the reference for sim::FlowMemo: a direct-mapped
// table fixed at the memo's 4096-slot cap, which the growable memo must
// agree with on every lookup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/cert.h"
#include "crypto/handshake.h"
#include "crypto/keyexchange.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace canal::testutil {

struct MtlsFixture {
  struct Params {
    std::uint64_t seed = 79;
    std::string ca_name = "mesh-ca";
    std::string client_identity = "spiffe://t1/client";
    std::string server_identity = "spiffe://t1/server";
    sim::Duration cert_lifetime = sim::hours(24);
  };

  MtlsFixture() : MtlsFixture(Params{}) {}
  explicit MtlsFixture(Params p)
      : params(std::move(p)),
        rng(params.seed),
        ca(params.ca_name, rng),
        client_key(crypto::generate_keypair(rng)),
        server_key(crypto::generate_keypair(rng)) {}

  [[nodiscard]] crypto::EndpointConfig client_config() {
    return config_for(params.client_identity, client_key);
  }
  [[nodiscard]] crypto::EndpointConfig server_config() {
    return config_for(params.server_identity, server_key);
  }

  /// Issues a fresh certificate for `identity` signed by the fixture CA
  /// and wires up a signer over `key`. `key` must be owned by the fixture.
  [[nodiscard]] crypto::EndpointConfig config_for(const std::string& identity,
                                                  const crypto::KeyPair& key) {
    crypto::EndpointConfig config;
    config.certificate =
        ca.issue(identity, key.public_key, 0, params.cert_lifetime, rng);
    config.signer = [this, &key](std::string_view transcript) {
      return crypto::sign(key.private_key, transcript, rng);
    };
    config.ca_public_key = ca.public_key();
    config.ca_name = params.ca_name;
    return config;
  }

  Params params;
  sim::Rng rng;
  crypto::CertificateAuthority ca;
  crypto::KeyPair client_key;
  crypto::KeyPair server_key;
};

template <typename Key, typename Value = bool>
struct FullSizeFlowTable {
  static constexpr std::size_t kSlots = 4096;
  struct Slot {
    bool used = false;
    Key key{};
    std::uint64_t epoch = 0;
    Value value{};
  };
  std::vector<Slot> slots = std::vector<Slot>(kSlots);

  /// The value written for `key` at `epoch`, or nullptr.
  [[nodiscard]] const Value* find(const Key& key, std::uint64_t epoch) const {
    const Slot& slot = slots[std::hash<Key>{}(key) & (kSlots - 1)];
    return slot.used && slot.epoch == epoch && slot.key == key ? &slot.value
                                                              : nullptr;
  }
  void insert(const Key& key, std::uint64_t epoch, Value value = {}) {
    slots[std::hash<Key>{}(key) & (kSlots - 1)] = {true, key, epoch, value};
  }
};

}  // namespace canal::testutil
