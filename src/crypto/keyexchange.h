// Toy finite-field asymmetric primitives: Diffie–Hellman key agreement and
// Schnorr signatures over Z_p^* with p = 2^61 - 1.
//
// NOT cryptographically secure — the group is far too small — but the
// algebra is real: shared secrets agree, signatures verify iff produced by
// the matching private key, and the operations have the asymmetric-crypto
// *shape* (modular exponentiation) whose cost the simulation models. The
// paper's mTLS handshakes, keyless mode, and key-server offloading all sit
// on these primitives.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/rng.h"

namespace canal::crypto {

/// The Mersenne prime 2^61 - 1.
constexpr std::uint64_t kFieldPrime = 2305843009213693951ULL;
/// Group generator.
constexpr std::uint64_t kGenerator = 3;

/// (a * b) mod p via 128-bit intermediate.
std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b) noexcept;
/// (base ^ exp) mod p, square-and-multiply.
std::uint64_t mod_pow(std::uint64_t base, std::uint64_t exp) noexcept;
/// (kGenerator ^ exp) mod p from a precomputed fixed-base table: 8 mod_muls
/// instead of square-and-multiply's ~90, and exactly mod_pow's result.
std::uint64_t generator_pow(std::uint64_t exp) noexcept;

struct KeyPair {
  std::uint64_t private_key = 0;
  std::uint64_t public_key = 0;  // g^private mod p
};

/// Generates a keypair from the deterministic simulation RNG.
KeyPair generate_keypair(sim::Rng& rng);

/// DH shared secret: peer_public ^ my_private mod p. Symmetric by algebra.
std::uint64_t dh_shared_secret(std::uint64_t my_private,
                               std::uint64_t peer_public) noexcept;

/// Schnorr-style signature (r = g^k, e = H(r||m), s = k - e*x mod (p-1)).
struct Signature {
  std::uint64_t r = 0;
  std::uint64_t s = 0;

  [[nodiscard]] std::string serialize() const;
};

Signature sign(std::uint64_t private_key, std::string_view message,
               sim::Rng& rng);
/// True iff `sig` was produced over `message` by the key matching `public_key`.
bool verify(std::uint64_t public_key, std::string_view message,
            const Signature& sig) noexcept;

}  // namespace canal::crypto
