#include "sgx/sealing.h"

#include "support/bytes.h"
#include "support/error.h"

namespace msv::sgx {

std::vector<std::uint8_t> SealedBlob::serialize() const {
  ByteBuffer buf;
  buf.put_bytes(mr_enclave.data(), mr_enclave.size());
  buf.put_varint(iv.size());
  buf.put_bytes(iv.data(), iv.size());
  buf.put_varint(ciphertext.size());
  buf.put_bytes(ciphertext.data(), ciphertext.size());
  buf.put_bytes(mac.data(), mac.size());
  return buf.take();
}

SealedBlob SealedBlob::deserialize(const std::vector<std::uint8_t>& bytes) {
  // A sealed blob is read back from *untrusted* storage: every length is
  // attacker-controlled, so a corrupt blob must fail typed (SecurityFault)
  // and bounded — resize() on an unchecked varint could be asked for
  // 2^64 bytes before the MAC ever gets a look.
  const auto corrupt = [](const std::string& why) -> SecurityFault {
    return SecurityFault("corrupt sealed blob: " + why);
  };
  ByteReader r(bytes.data(), bytes.size());
  SealedBlob blob;
  if (r.remaining() < blob.mr_enclave.size()) throw corrupt("truncated header");
  r.get_bytes(blob.mr_enclave.data(), blob.mr_enclave.size());
  const auto bounded_len = [&](const char* field) -> std::size_t {
    std::uint64_t n = 0;
    try {
      n = r.get_varint();
    } catch (const RuntimeFault&) {
      throw corrupt(std::string("truncated ") + field + " length");
    }
    if (n > r.remaining()) {
      throw corrupt(std::string(field) + " length exceeds blob size");
    }
    return static_cast<std::size_t>(n);
  };
  blob.iv.resize(bounded_len("iv"));
  r.get_bytes(blob.iv.data(), blob.iv.size());
  blob.ciphertext.resize(bounded_len("ciphertext"));
  r.get_bytes(blob.ciphertext.data(), blob.ciphertext.size());
  if (r.remaining() < blob.mac.size()) throw corrupt("truncated MAC");
  r.get_bytes(blob.mac.data(), blob.mac.size());
  if (!r.done()) throw corrupt("trailing bytes");
  return blob;
}

namespace {

// Explicit little-endian serialization for hashed integers: hashing raw
// object bytes would make keystreams and MACs differ across host
// endianness, breaking sealed-blob portability.
void update_le64(Sha256& h, std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  h.update(le, sizeof(le));
}

}  // namespace

const SealingPlatform::Identity& SealingPlatform::identity(
    const Sha256::Digest& mr_enclave) const {
  if (memo_ && memo_->mr_enclave == mr_enclave) return *memo_;
  Identity& id = memo_.emplace();
  id.mr_enclave = mr_enclave;
  // EGETKEY with KEYPOLICY.MRENCLAVE: key = KDF(fuse key, measurement).
  Sha256 kdf;
  kdf.update(platform_secret_);
  kdf.update("seal-key-v1");
  kdf.update(mr_enclave.data(), mr_enclave.size());
  id.key = kdf.finish();
  id.mac_prefix.update(id.key.data(), id.key.size());
  id.mac_prefix.update("seal-mac-v2");
  id.mac_prefix.update(mr_enclave.data(), mr_enclave.size());
  return id;
}

void SealingPlatform::apply_keystream(const Sha256::Digest& key,
                                      const std::vector<std::uint8_t>& iv,
                                      std::vector<std::uint8_t>& data) {
  // CTR-mode stream cipher over SHA-256 blocks.
  Sha256::Digest block{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % block.size() == 0) {
      Sha256 h;
      h.update(key.data(), key.size());
      h.update(iv.data(), iv.size());
      update_le64(h, i / block.size());
      block = h.finish();
    }
    data[i] ^= block[i % block.size()];
  }
}

Sha256::Digest SealingPlatform::compute_mac(const Identity& id,
                                            const SealedBlob& blob) {
  // MAC = H(key || "seal-mac-v2" || mr_enclave || le64(|iv|) || iv ||
  //         le64(|ct|) || ct); the identity carries the hash state after
  // the fixed prefix, and its mr_enclave is the blob's.
  //
  // Every variable-length field is length-framed: hashing bare
  // iv || ciphertext would let an attacker slide bytes across the field
  // boundary (shorten the iv, prepend those bytes to the ciphertext)
  // without changing the MAC input. v2 also drops the redundant trailing
  // key of v1 — the key already keys the hash from the front, and feeding
  // it in twice adds nothing but a fixed-offset copy of secret material.
  Sha256 h = id.mac_prefix;
  update_le64(h, blob.iv.size());
  h.update(blob.iv.data(), blob.iv.size());
  update_le64(h, blob.ciphertext.size());
  h.update(blob.ciphertext.data(), blob.ciphertext.size());
  return h.finish();
}

SealedBlob SealingPlatform::seal(const Enclave& enclave,
                                 const std::vector<std::uint8_t>& plaintext,
                                 std::uint64_t iv_seed) const {
  SealedBlob blob;
  blob.mr_enclave = enclave.measurement();
  blob.iv.resize(16);
  for (std::size_t i = 0; i < blob.iv.size(); ++i) {
    blob.iv[i] = static_cast<std::uint8_t>(iv_seed >> ((i % 8) * 8)) ^
                 static_cast<std::uint8_t>(i * 37);
  }
  blob.ciphertext = plaintext;
  const Identity& id = identity(blob.mr_enclave);
  apply_keystream(id.key, blob.iv, blob.ciphertext);
  blob.mac = compute_mac(id, blob);
  return blob;
}

std::vector<std::uint8_t> SealingPlatform::unseal(const Enclave& enclave,
                                                  const SealedBlob& blob) const {
  if (blob.mr_enclave != enclave.measurement()) {
    throw SecurityFault(
        "unseal: blob sealed to a different enclave identity");
  }
  const Identity& id = identity(blob.mr_enclave);
  if (compute_mac(id, blob) != blob.mac) {
    throw SecurityFault("unseal: sealed blob failed authentication");
  }
  std::vector<std::uint8_t> plaintext = blob.ciphertext;
  apply_keystream(id.key, blob.iv, plaintext);
  return plaintext;
}

}  // namespace msv::sgx
