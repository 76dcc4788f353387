// Unit tests for the crypto substrate: ChaCha20 (RFC 8439 vectors),
// SipHash MAC/KDF, toy DH/Schnorr, certificates, record protection, the
// batch accelerator, and the key server.
#include <gtest/gtest.h>

#include <vector>

#include <cmath>
#include <cstring>
#include <string>

#include "crypto/accelerator.h"
#include "crypto/cert.h"
#include "crypto/chacha20.h"
#include "crypto/keyexchange.h"
#include "crypto/keyserver.h"
#include "crypto/mac.h"
#include "crypto/record.h"
#include "sim/event_loop.h"

namespace canal::crypto {
namespace {

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const auto b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Key256 rfc_key() {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  return key;
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2: key 00..1f, counter 1, nonce 000000090000004a00000000.
  const Nonce96 nonce{0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  const auto block = chacha20_block(rfc_key(), 1, nonce);
  EXPECT_EQ(to_hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c06803"
            "0422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  // RFC 8439 §2.4.2: the "sunscreen" plaintext.
  const Nonce96 nonce{0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const std::string ciphertext =
      chacha20_apply(rfc_key(), nonce, plaintext, /*initial_counter=*/1);
  EXPECT_EQ(
      to_hex(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(ciphertext.data()),
          ciphertext.size())),
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  const Key256 key = derive_key("secret", "test");
  const Nonce96 nonce = derive_nonce("chan", 7);
  const std::string plaintext(1000, 'z');
  const std::string ct = chacha20_apply(key, nonce, plaintext);
  EXPECT_NE(ct, plaintext);
  EXPECT_EQ(chacha20_apply(key, nonce, ct), plaintext);
}

TEST(ChaCha20, DifferentNoncesDiffer) {
  const Key256 key = rfc_key();
  const std::string pt(64, 'a');
  EXPECT_NE(chacha20_apply(key, derive_nonce("n", 1), pt),
            chacha20_apply(key, derive_nonce("n", 2), pt));
}

TEST(SipHash, DeterministicAndKeySensitive) {
  Key128 k1{};
  k1[0] = 1;
  Key128 k2{};
  k2[0] = 2;
  EXPECT_EQ(siphash24(k1, "hello"), siphash24(k1, "hello"));
  EXPECT_NE(siphash24(k1, "hello"), siphash24(k2, "hello"));
  EXPECT_NE(siphash24(k1, "hello"), siphash24(k1, "hellp"));
}

TEST(SipHash, HandlesAllTailLengths) {
  Key128 key{};
  std::string msg;
  std::uint64_t previous = 0;
  for (int len = 0; len <= 17; ++len) {
    const std::uint64_t h = siphash24(key, msg);
    if (len > 0) {
      EXPECT_NE(h, previous) << "len=" << len;
    }
    previous = h;
    msg.push_back(static_cast<char>('a' + len));
  }
}

TEST(Mac256, TamperDetected) {
  const Key256 key = derive_key("ikm", "mac");
  const auto tag1 = mac256(key, "message");
  const auto tag2 = mac256(key, "messagf");
  EXPECT_FALSE(tags_equal(tag1, tag2));
  EXPECT_TRUE(tags_equal(tag1, mac256(key, "message")));
}

TEST(DeriveKey, LabelSeparation) {
  const Key256 a = derive_key("ikm", "c2s");
  const Key256 b = derive_key("ikm", "s2c");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, derive_key("ikm", "c2s"));
}

TEST(ModArith, PowIdentities) {
  EXPECT_EQ(mod_pow(3, 0), 1u);
  EXPECT_EQ(mod_pow(3, 1), 3u);
  EXPECT_EQ(mod_pow(2, 61), 1u);  // 2^61 ≡ 1 (mod 2^61 - 1)
}

TEST(ModArith, MulMatchesPow) {
  // g^2 == g*g
  EXPECT_EQ(mod_pow(kGenerator, 2), mod_mul(kGenerator, kGenerator));
  // Fermat: a^(p-1) == 1 mod p for a not divisible by p.
  EXPECT_EQ(mod_pow(12345, kFieldPrime - 1), 1u);
}

TEST(ModArith, GeneratorPowMatchesModPow) {
  // The fixed-base table must reproduce square-and-multiply exactly.
  std::vector<std::uint64_t> exps = {0, 1, 255, 256, kFieldPrime - 1,
                                     ~std::uint64_t{0}};
  for (std::uint64_t power = 1; power != 0; power <<= 8) exps.push_back(power);
  for (const std::uint64_t e : exps) {
    EXPECT_EQ(generator_pow(e), mod_pow(kGenerator, e)) << "e = " << e;
  }
  EXPECT_EQ(generator_pow(kFieldPrime - 1), 1u);  // Fermat
  sim::Rng rng(2024);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t e = rng.next();
    ASSERT_EQ(generator_pow(e), mod_pow(kGenerator, e)) << "e = " << e;
  }
}

TEST(DiffieHellman, SharedSecretsAgree) {
  sim::Rng rng(41);
  const KeyPair alice = generate_keypair(rng);
  const KeyPair bob = generate_keypair(rng);
  EXPECT_NE(alice.public_key, bob.public_key);
  EXPECT_EQ(dh_shared_secret(alice.private_key, bob.public_key),
            dh_shared_secret(bob.private_key, alice.public_key));
}

TEST(Schnorr, SignVerifyRoundTrip) {
  sim::Rng rng(43);
  const KeyPair kp = generate_keypair(rng);
  const Signature sig = sign(kp.private_key, "attest this", rng);
  EXPECT_TRUE(verify(kp.public_key, "attest this", sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
  sim::Rng rng(47);
  const KeyPair kp = generate_keypair(rng);
  const Signature sig = sign(kp.private_key, "original", rng);
  EXPECT_FALSE(verify(kp.public_key, "tampered", sig));
}

TEST(Schnorr, RejectsWrongKey) {
  sim::Rng rng(53);
  const KeyPair kp = generate_keypair(rng);
  const KeyPair other = generate_keypair(rng);
  const Signature sig = sign(kp.private_key, "msg", rng);
  EXPECT_FALSE(verify(other.public_key, "msg", sig));
}

TEST(Schnorr, RejectsMangledSignature) {
  sim::Rng rng(59);
  const KeyPair kp = generate_keypair(rng);
  Signature sig = sign(kp.private_key, "msg", rng);
  sig.s ^= 1;
  EXPECT_FALSE(verify(kp.public_key, "msg", sig));
  sig.s ^= 1;
  sig.r = 0;
  EXPECT_FALSE(verify(kp.public_key, "msg", sig));
}

TEST(Certificate, IssueAndVerify) {
  sim::Rng rng(61);
  CertificateAuthority ca("mesh-ca", rng);
  const KeyPair subject = generate_keypair(rng);
  const Certificate cert =
      ca.issue("spiffe://tenant-1/ns/default/sa/frontend", subject.public_key,
               0, sim::hours(24), rng);
  EXPECT_TRUE(CertificateAuthority::verify_certificate(
      cert, ca.public_key(), "mesh-ca", sim::hours(1)));
}

TEST(Certificate, RejectsExpired) {
  sim::Rng rng(67);
  CertificateAuthority ca("mesh-ca", rng);
  const KeyPair subject = generate_keypair(rng);
  const Certificate cert =
      ca.issue("spiffe://t/x", subject.public_key, 0, sim::hours(1), rng);
  EXPECT_FALSE(CertificateAuthority::verify_certificate(
      cert, ca.public_key(), "mesh-ca", sim::hours(2)));
}

TEST(Certificate, RejectsWrongIssuerOrCa) {
  sim::Rng rng(71);
  CertificateAuthority ca("mesh-ca", rng);
  CertificateAuthority rogue("rogue-ca", rng);
  const KeyPair subject = generate_keypair(rng);
  const Certificate cert =
      ca.issue("spiffe://t/x", subject.public_key, 0, sim::hours(1), rng);
  EXPECT_FALSE(CertificateAuthority::verify_certificate(
      cert, rogue.public_key(), "mesh-ca", 0));
  EXPECT_FALSE(CertificateAuthority::verify_certificate(
      cert, ca.public_key(), "other-ca", 0));
}

TEST(Certificate, RejectsForgedIdentity) {
  sim::Rng rng(73);
  CertificateAuthority ca("mesh-ca", rng);
  const KeyPair subject = generate_keypair(rng);
  Certificate cert =
      ca.issue("spiffe://t/victim", subject.public_key, 0, sim::hours(1), rng);
  cert.identity = "spiffe://t/attacker";
  EXPECT_FALSE(CertificateAuthority::verify_certificate(
      cert, ca.public_key(), "mesh-ca", 0));
}

TEST(Spiffe, TrustDomainExtraction) {
  EXPECT_EQ(spiffe_trust_domain("spiffe://tenant-9/ns/x"), "tenant-9");
  EXPECT_EQ(spiffe_trust_domain("spiffe://solo"), "solo");
  EXPECT_FALSE(spiffe_trust_domain("https://tenant-9/x").has_value());
  EXPECT_FALSE(spiffe_trust_domain("spiffe:///x").has_value());
}

// ---- Record channel ------------------------------------------------------

TEST(RecordChannel, TamperAndReplayRejected) {
  const Key256 key = derive_key("k", "chan");
  RecordChannel tx(key), rx(key);
  std::string record = tx.seal("secret");
  std::string tampered = record;
  tampered.back() ^= 0x01;
  EXPECT_FALSE(rx.open(tampered).has_value());
  EXPECT_TRUE(rx.open(record).has_value());
  EXPECT_FALSE(rx.open(record).has_value());  // replay
}

TEST(RecordChannel, RejectsTruncated) {
  const Key256 key = derive_key("k", "chan");
  RecordChannel rx(key);
  EXPECT_FALSE(rx.open("short").has_value());
}

// ---- Batch accelerator (Fig 25 behaviour) -------------------------------

TEST(Accelerator, FullBatchCompletesFast) {
  sim::EventLoop loop;
  sim::CpuSet cpu(loop, 8);  // one core per batch lane
  CryptoCostModel model;
  AsymmetricAccelerator accel(loop, cpu, AccelMode::kBatched, model);
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    accel.submit([&] { ++completed; });
  }
  loop.run();
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(accel.batches_flushed(), 1u);
  // Full batch: no flush-timeout stall, just the per-op compute.
  EXPECT_LT(accel.op_latency_us().max(),
            sim::to_microseconds(model.accel_flush_timeout));
  EXPECT_GE(accel.op_latency_us().min(),
            sim::to_microseconds(model.accel_per_op_cost));
}

TEST(Accelerator, PartialBatchWaitsForTimeout) {
  sim::EventLoop loop;
  sim::CpuSet cpu(loop, 4);
  CryptoCostModel model;
  AsymmetricAccelerator accel(loop, cpu, AccelMode::kBatched, model);
  int completed = 0;
  accel.submit([&] { ++completed; });  // 1 < batch size of 8
  loop.run();
  EXPECT_EQ(completed, 1);
  // The single op had to wait out the 1 ms flush timer (Fig 25 pathology).
  EXPECT_GE(accel.op_latency_us().min(),
            sim::to_microseconds(model.accel_flush_timeout));
}

TEST(Accelerator, BurstLargerThanBatchDrains) {
  sim::EventLoop loop;
  sim::CpuSet cpu(loop, 4);
  AsymmetricAccelerator accel(loop, cpu, AccelMode::kBatched);
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    accel.submit([&] { ++completed; });
  }
  loop.run();
  EXPECT_EQ(completed, 20);
  EXPECT_GE(accel.batches_flushed(), 3u);
}

TEST(Accelerator, SoftwareModeCostsMore) {
  sim::EventLoop loop;
  sim::CpuSet cpu(loop, 1);
  CryptoCostModel model;
  AsymmetricAccelerator accel(loop, cpu, AccelMode::kSoftware, model);
  bool done = false;
  accel.submit([&] { done = true; });
  loop.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(loop.now(), model.software_asym_cost);
}

// ---- Key server ----------------------------------------------------------

TEST(KeyServer, ServesEstablishedRequesters) {
  sim::EventLoop loop;
  KeyServer server(loop, static_cast<net::AzId>(0), 4, sim::Rng(89));
  server.establish_channel("onnode-1");
  server.store_private_key("spiffe://t/a", 12345);
  std::optional<Signature> result;
  server.handle_sign("onnode-1", "spiffe://t/a", "transcript",
                     [&](std::optional<Signature> sig) { result = sig; });
  loop.run();
  ASSERT_TRUE(result.has_value());
  // Signature must verify against the public key of the stored secret.
  EXPECT_TRUE(verify(mod_pow(kGenerator, 12345), "transcript", *result));
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(KeyServer, RejectsUnknownRequester) {
  sim::EventLoop loop;
  KeyServer server(loop, static_cast<net::AzId>(0), 4, sim::Rng(97));
  server.store_private_key("spiffe://t/a", 1);
  bool got = false;
  std::optional<Signature> result;
  server.handle_sign("stranger", "spiffe://t/a", "x",
                     [&](std::optional<Signature> sig) {
                       got = true;
                       result = sig;
                     });
  loop.run();
  EXPECT_TRUE(got);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(server.requests_rejected(), 1u);
}

TEST(KeyServer, RejectsUnknownIdentity) {
  sim::EventLoop loop;
  KeyServer server(loop, static_cast<net::AzId>(0), 4, sim::Rng(101));
  server.establish_channel("r");
  std::optional<Signature> result = Signature{};
  server.handle_sign("r", "spiffe://t/missing", "x",
                     [&](std::optional<Signature> sig) { result = sig; });
  loop.run();
  EXPECT_FALSE(result.has_value());
}

TEST(KeyServerClient, RemotePathAddsRtt) {
  sim::EventLoop loop;
  sim::CpuSet local(loop, 2);
  KeyServer server(loop, static_cast<net::AzId>(0), 8, sim::Rng(103));
  server.store_private_key("spiffe://t/a", 777);

  crypto::KeyServerClient::Config config;
  config.requester_id = "onnode-9";
  config.local_private_key = 778;
  KeyServerClient client(loop, local, config, sim::Rng(107));
  server.establish_channel("onnode-9");
  client.attach_server(&server);

  sim::TimePoint finished = -1;
  client.sign("spiffe://t/a", "tx", [&](std::optional<Signature> sig) {
    ASSERT_TRUE(sig.has_value());
    finished = loop.now();
  });
  loop.run();
  // Two one-way transits plus server-side handling.
  EXPECT_GE(finished, 2 * config.model.key_server_one_way);
  EXPECT_EQ(client.remote_signs(), 1u);
  EXPECT_EQ(client.fallback_signs(), 0u);
}

TEST(KeyServerClient, FallsBackWhenServerDown) {
  sim::EventLoop loop;
  sim::CpuSet local(loop, 2);
  KeyServer server(loop, static_cast<net::AzId>(0), 8, sim::Rng(109));
  crypto::KeyServerClient::Config config;
  config.requester_id = "onnode-2";
  config.local_private_key = 999;
  KeyServerClient client(loop, local, config, sim::Rng(113));
  server.establish_channel("onnode-2");
  client.attach_server(&server);
  server.set_available(false);

  std::optional<Signature> result;
  client.sign("spiffe://t/a", "tx",
              [&](std::optional<Signature> sig) { result = sig; });
  loop.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(verify(mod_pow(kGenerator, 999), "tx", *result));
  EXPECT_EQ(client.fallback_signs(), 1u);
  // Software path cost charged to the local CPU.
  EXPECT_EQ(loop.now(), config.model.software_asym_cost);
}

TEST(KeyServerClient, KeylessModeNeverSharesKey) {
  // A keyless customer never enrolls a key with the cloud key server; the
  // signer runs on their own premises (modeled by the local fallback).
  sim::EventLoop loop;
  sim::CpuSet local(loop, 2);
  crypto::KeyServerClient::Config config;
  config.requester_id = "onnode-3";
  config.local_private_key = 4242;
  KeyServerClient client(loop, local, config, sim::Rng(127));
  std::optional<Signature> result;
  client.sign("spiffe://bank/svc", "tx",
              [&](std::optional<Signature> sig) { result = sig; });
  loop.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(verify(mod_pow(kGenerator, 4242), "tx", *result));
}

// Property sweep: the Fig 25 pathology appears exactly below batch size.
class ConcurrencySweep : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrencySweep, LatencyDependsOnBatchFill) {
  const int concurrent = GetParam();
  sim::EventLoop loop;
  sim::CpuSet cpu(loop, 8);
  CryptoCostModel model;
  AsymmetricAccelerator accel(loop, cpu, AccelMode::kBatched, model);
  for (int i = 0; i < concurrent; ++i) {
    accel.submit([] {});
  }
  loop.run();
  const double flush_us = sim::to_microseconds(model.accel_flush_timeout);
  const double per_op_us = sim::to_microseconds(model.accel_per_op_cost);
  const double waves =
      std::ceil(static_cast<double>(concurrent) / 8.0);  // 8 cores
  if (concurrent >= 8) {
    // No flush stall: ops finish within the compute waves alone.
    EXPECT_LE(accel.op_latency_us().percentile(50), waves * per_op_us);
    EXPECT_LT(accel.op_latency_us().min(), flush_us);
  } else {
    EXPECT_GE(accel.op_latency_us().percentile(50), flush_us);
  }
}

INSTANTIATE_TEST_SUITE_P(BelowAndAboveBatch, ConcurrencySweep,
                         ::testing::Values(1, 2, 4, 7, 8, 16, 32));

}  // namespace
}  // namespace canal::crypto
