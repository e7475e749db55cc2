// Tests for src/sgx/sealing: sealed storage bound to the enclave identity.
#include <gtest/gtest.h>

#include "sgx/sealing.h"
#include "sim/env.h"
#include "support/error.h"

namespace msv::sgx {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

class SealingTest : public ::testing::Test {
 protected:
  SealingTest()
      : enclave_(env_, "kv", Sha256::hash("kv-image"), 4096),
        other_(env_, "other", Sha256::hash("other-image"), 4096),
        platform_("fuse-key") {
    enclave_.init(Sha256::hash("kv-image"));
    other_.init(Sha256::hash("other-image"));
  }

  Env env_;
  Enclave enclave_;
  Enclave other_;
  SealingPlatform platform_;
};

TEST_F(SealingTest, SealUnsealRoundTrip) {
  const auto blob = platform_.seal(enclave_, bytes("api_key=sk-123"), 1);
  EXPECT_EQ(platform_.unseal(enclave_, blob), bytes("api_key=sk-123"));
}

TEST_F(SealingTest, CiphertextHidesPlaintext) {
  const auto plain = bytes("very secret value padded out to a sentence");
  const auto blob = platform_.seal(enclave_, plain, 2);
  EXPECT_NE(blob.ciphertext, plain);
  // No obvious substring survives.
  const std::string ct(blob.ciphertext.begin(), blob.ciphertext.end());
  EXPECT_EQ(ct.find("secret"), std::string::npos);
}

TEST_F(SealingTest, DifferentIvsDifferentCiphertexts) {
  const auto a = platform_.seal(enclave_, bytes("same"), 1);
  const auto b = platform_.seal(enclave_, bytes("same"), 2);
  EXPECT_NE(a.ciphertext, b.ciphertext);
}

TEST_F(SealingTest, OtherEnclaveCannotUnseal) {
  const auto blob = platform_.seal(enclave_, bytes("mine"), 3);
  EXPECT_THROW(platform_.unseal(other_, blob), SecurityFault);
}

TEST_F(SealingTest, OtherPlatformCannotUnseal) {
  const auto blob = platform_.seal(enclave_, bytes("mine"), 4);
  SealingPlatform other_platform("different-fuse-key");
  EXPECT_THROW(other_platform.unseal(enclave_, blob), SecurityFault);
}

TEST_F(SealingTest, TamperedBlobRejected) {
  auto blob = platform_.seal(enclave_, bytes("integrity matters"), 5);
  blob.ciphertext[3] ^= 1;
  EXPECT_THROW(platform_.unseal(enclave_, blob), SecurityFault);

  auto blob2 = platform_.seal(enclave_, bytes("integrity matters"), 6);
  blob2.iv[0] ^= 1;
  EXPECT_THROW(platform_.unseal(enclave_, blob2), SecurityFault);
}

TEST_F(SealingTest, PolicySwapRejected) {
  // Re-targeting the blob at another enclave must break the MAC.
  auto blob = platform_.seal(enclave_, bytes("payload"), 7);
  blob.mr_enclave = other_.measurement();
  EXPECT_THROW(platform_.unseal(other_, blob), SecurityFault);
}

TEST_F(SealingTest, SerializationRoundTrip) {
  const auto blob = platform_.seal(enclave_, bytes("persist me"), 8);
  const auto wire = blob.serialize();
  const SealedBlob restored = SealedBlob::deserialize(wire);
  EXPECT_EQ(platform_.unseal(enclave_, restored), bytes("persist me"));
}

TEST_F(SealingTest, EmptyPlaintextSupported) {
  const auto blob = platform_.seal(enclave_, {}, 9);
  EXPECT_TRUE(platform_.unseal(enclave_, blob).empty());
}

TEST_F(SealingTest, LargePayloadRoundTrip) {
  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131);
  }
  const auto blob = platform_.seal(enclave_, big, 10);
  EXPECT_EQ(platform_.unseal(enclave_, blob), big);
}

TEST_F(SealingTest, FieldBoundarySpliceRejected) {
  // Regression for the seal-mac-v1 splice: the old MAC hashed bare
  // iv || ciphertext, so sliding bytes across the field boundary left the
  // MAC input — and therefore the verdict — unchanged, and a spliced blob
  // decrypted to silent garbage. v2 length-frames every field.
  const auto blob = platform_.seal(enclave_, bytes("field framing"), 11);
  SealedBlob spliced = blob;
  spliced.ciphertext.insert(spliced.ciphertext.begin(), spliced.iv.back());
  spliced.iv.pop_back();
  EXPECT_THROW(platform_.unseal(enclave_, spliced), SecurityFault);
  // And the other direction: grow the iv by eating the ciphertext's head.
  SealedBlob spliced2 = blob;
  spliced2.iv.push_back(spliced2.ciphertext.front());
  spliced2.ciphertext.erase(spliced2.ciphertext.begin());
  EXPECT_THROW(platform_.unseal(enclave_, spliced2), SecurityFault);
}

TEST_F(SealingTest, DeserializeRejectsOversizedLength) {
  // A blob comes from untrusted storage: a huge length varint must fail
  // typed and bounded, not resize() toward 2^64 bytes.
  const auto wire = platform_.seal(enclave_, bytes("x"), 12).serialize();
  std::vector<std::uint8_t> huge(wire.begin(), wire.begin() + 32);
  for (int i = 0; i < 9; ++i) huge.push_back(0xFF);
  huge.push_back(0x7F);
  EXPECT_THROW(SealedBlob::deserialize(huge), SecurityFault);
}

TEST_F(SealingTest, DeserializeRejectsTruncationAndTrailingBytes) {
  auto wire = platform_.seal(enclave_, bytes("frame"), 13).serialize();
  auto trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(SealedBlob::deserialize(trailing), SecurityFault);
  wire.pop_back();  // clips the MAC
  EXPECT_THROW(SealedBlob::deserialize(wire), SecurityFault);
  EXPECT_THROW(SealedBlob::deserialize({}), SecurityFault);
}

TEST_F(SealingTest, FuzzCorpusEveryTruncationRejected) {
  // Exhaustive prefix corpus: every field is length-framed and the MAC is
  // fixed-width at the tail, so *every* strict prefix of a valid wire
  // blob must fail typed — there is no shorter blob that still parses.
  const auto wire = platform_.seal(enclave_, bytes("fuzz corpus"), 21)
                        .serialize();
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const std::vector<std::uint8_t> cut(wire.begin(), wire.begin() + n);
    EXPECT_THROW(SealedBlob::deserialize(cut), SecurityFault)
        << "prefix of " << n << " bytes parsed";
  }
  const auto ok = SealedBlob::deserialize(wire);
  EXPECT_EQ(platform_.unseal(enclave_, ok), bytes("fuzz corpus"));
}

TEST_F(SealingTest, FuzzCorpusNoBitFlipSurvivesToPlaintext) {
  // Every single-bit flip anywhere in the wire blob: the outcome must be
  // a typed rejection at deserialize OR at unseal (MAC/policy). No flip
  // may round-trip to the sealed plaintext — that would mean some wire
  // byte is neither parsed strictly nor authenticated.
  const auto plain = bytes("bit flip corpus payload");
  const auto wire = platform_.seal(enclave_, plain, 22).serialize();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = wire;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        const SealedBlob blob = SealedBlob::deserialize(mutated);
        const auto out = platform_.unseal(enclave_, blob);
        ADD_FAILURE() << "flip of bit " << bit << " at byte " << i
                      << " unsealed to "
                      << std::string(out.begin(), out.end());
      } catch (const SecurityFault&) {
        // rejected — the only sound outcome for a tampered blob
      }
    }
  }
}

TEST_F(SealingTest, IdentityMemoNeverChangesSealedBytes) {
  // One platform alternating between two identities (a memo miss on
  // every call) must produce exactly the bytes fresh platforms do.
  const auto plain_a = bytes("tenant a checkpoint");
  const auto plain_b = bytes("tenant b checkpoint, a little longer than a");
  for (std::uint64_t iv = 1; iv <= 6; ++iv) {
    const bool a_turn = iv % 2 == 1;
    const Enclave& enc = a_turn ? enclave_ : other_;
    const auto& plain = a_turn ? plain_a : plain_b;
    const SealedBlob warm = platform_.seal(enc, plain, iv);
    const SealedBlob fresh = SealingPlatform("fuse-key").seal(enc, plain, iv);
    EXPECT_EQ(warm.serialize(), fresh.serialize()) << "iv " << iv;
    EXPECT_EQ(platform_.unseal(enc, fresh), plain) << "iv " << iv;
    EXPECT_EQ(SealingPlatform("fuse-key").unseal(enc, warm), plain);
  }
  // Repeated sealing for one identity (memo hits) matches too.
  for (std::uint64_t iv = 10; iv < 13; ++iv) {
    EXPECT_EQ(platform_.seal(enclave_, plain_a, iv).serialize(),
              SealingPlatform("fuse-key").seal(enclave_, plain_a, iv)
                  .serialize());
  }
}

TEST_F(SealingTest, WarmMemoStillRejectsTamperAndWrongEnclave) {
  const auto blob = platform_.seal(enclave_, bytes("warm secret"), 7);
  ASSERT_EQ(platform_.unseal(enclave_, blob), bytes("warm secret"));
  // The memo now holds enclave_'s key and MAC prefix.
  for (std::size_t i = 0; i < blob.ciphertext.size(); ++i) {
    SealedBlob flipped = blob;
    flipped.ciphertext[i] ^= 0x01;
    EXPECT_THROW(platform_.unseal(enclave_, flipped), SecurityFault) << i;
  }
  SealedBlob bad_iv = blob;
  bad_iv.iv[0] ^= 0x80;
  EXPECT_THROW(platform_.unseal(enclave_, bad_iv), SecurityFault);
  SealedBlob bad_mac = blob;
  bad_mac.mac[31] ^= 0x01;
  EXPECT_THROW(platform_.unseal(enclave_, bad_mac), SecurityFault);
  EXPECT_THROW(platform_.unseal(other_, blob), SecurityFault);
  // A blob relabelled to the other identity fails its MAC even after
  // the memo has switched to that identity.
  ASSERT_NO_THROW(platform_.seal(other_, bytes("x"), 8));
  SealedBlob relabelled = blob;
  relabelled.mr_enclave = other_.measurement();
  EXPECT_THROW(platform_.unseal(other_, relabelled), SecurityFault);
  EXPECT_EQ(platform_.unseal(enclave_, blob), bytes("warm secret"));
}

TEST_F(SealingTest, GoldenBlobIsByteStable) {
  // Pins the wire format and the keystream/MAC endianness: a blob sealed
  // today must unseal under every future build (and on every host
  // endianness — the hashed counters are serialized little-endian).
  SealingPlatform gold("golden-fuse");
  Env env;
  Enclave enc(env, "gold", Sha256::hash("golden-image"), 4096);
  enc.init(Sha256::hash("golden-image"));
  const auto wire =
      gold.seal(enc, bytes("golden plaintext"), 0x1122334455667788ull)
          .serialize();
  EXPECT_EQ(Sha256::hex(Sha256::hash(
                std::string_view(reinterpret_cast<const char*>(wire.data()),
                                 wire.size()))),
            "c664dae0250e02e21a1caadccecfae5e1bfb6b536dc7500a4d897e55af11dd98");
}

}  // namespace
}  // namespace msv::sgx
