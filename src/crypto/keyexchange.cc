#include "crypto/keyexchange.h"

#include <array>
#include <cstring>

#include "crypto/mac.h"

namespace canal::crypto {
namespace {

constexpr std::uint64_t kGroupOrder = kFieldPrime - 1;

/// Challenge hash e = H(r || message) reduced into the exponent group.
std::uint64_t challenge(std::uint64_t r, std::string_view message) {
  Key128 key{};
  key[0] = 0x53;  // 'S' for Schnorr domain
  // r || message is assembled on the stack; only a message too long for the
  // buffer (handshake transcripts are short) takes a heap copy.
  constexpr std::size_t kStackBytes = 256;
  std::array<char, kStackBytes> stack;
  std::string oversized;
  const std::size_t size = 8 + message.size();
  char* material = stack.data();
  if (size > kStackBytes) {
    oversized.resize(size);
    material = oversized.data();
  }
  std::memcpy(material, &r, 8);
  std::memcpy(material + 8, message.data(), message.size());
  std::uint64_t e =
      siphash24(key, std::string_view(material, size)) % kGroupOrder;
  if (e == 0) e = 1;
  return e;
}

/// g^(j * 256^i) mod p for every byte position i of a 64-bit exponent and
/// every byte value j: 8 x 256 entries, 16 KB, built once.
struct GeneratorTable {
  std::array<std::array<std::uint64_t, 256>, 8> powers{};

  GeneratorTable() {
    std::uint64_t base = kGenerator;  // g^(256^i)
    for (auto& row : powers) {
      row[0] = 1;
      for (std::size_t j = 1; j < row.size(); ++j) {
        row[j] = mod_mul(row[j - 1], base);
      }
      base = mod_mul(row[255], base);
    }
  }
};

}  // namespace

std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % kFieldPrime);
}

std::uint64_t mod_pow(std::uint64_t base, std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  base %= kFieldPrime;
  while (exp > 0) {
    if (exp & 1) result = mod_mul(result, base);
    base = mod_mul(base, base);
    exp >>= 1;
  }
  return result;
}

std::uint64_t generator_pow(std::uint64_t exp) noexcept {
  static const GeneratorTable table;
  std::uint64_t result = table.powers[0][exp & 0xff];
  for (std::size_t i = 1; i < table.powers.size(); ++i) {
    exp >>= 8;
    result = mod_mul(result, table.powers[i][exp & 0xff]);
  }
  return result;
}

KeyPair generate_keypair(sim::Rng& rng) {
  KeyPair kp;
  do {
    kp.private_key = rng.next() % kGroupOrder;
  } while (kp.private_key < 2);
  kp.public_key = generator_pow(kp.private_key);
  return kp;
}

std::uint64_t dh_shared_secret(std::uint64_t my_private,
                               std::uint64_t peer_public) noexcept {
  return mod_pow(peer_public, my_private);
}

std::string Signature::serialize() const {
  std::string out(16, '\0');
  std::memcpy(out.data(), &r, 8);
  std::memcpy(out.data() + 8, &s, 8);
  return out;
}

Signature sign(std::uint64_t private_key, std::string_view message,
               sim::Rng& rng) {
  Signature sig;
  std::uint64_t k = 0;
  do {
    k = rng.next() % kGroupOrder;
  } while (k < 2);
  sig.r = generator_pow(k);
  const std::uint64_t e = challenge(sig.r, message);
  // s = k - e*x mod (p-1); use 128-bit arithmetic to avoid overflow.
  const auto ex = static_cast<unsigned __int128>(e) * private_key;
  const auto ex_mod = static_cast<std::uint64_t>(ex % kGroupOrder);
  sig.s = (k + kGroupOrder - ex_mod) % kGroupOrder;
  return sig;
}

bool verify(std::uint64_t public_key, std::string_view message,
            const Signature& sig) noexcept {
  if (sig.r == 0 || sig.r >= kFieldPrime) return false;
  const std::uint64_t e = challenge(sig.r, message);
  // Check g^s * y^e == r.
  const std::uint64_t lhs =
      mod_mul(mod_pow(kGenerator, sig.s), mod_pow(public_key, e));
  return lhs == sig.r;
}

}  // namespace canal::crypto
