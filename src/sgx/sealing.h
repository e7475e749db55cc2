// Sealed storage.
//
// SGX enclaves persist secrets by *sealing* them: encrypting with a key
// derived from the CPU's fuse key and the enclave identity (MRENCLAVE
// policy), so only the same enclave on the same platform can unseal. The
// secure KV-store use case of §6.7 needs exactly this to survive restarts
// without ever exposing plaintext to the untrusted side.
//
// The simulation derives the sealing key from a platform secret and the
// enclave measurement, encrypts with a SHA-256-based stream cipher and
// authenticates with the same HMAC-like construction the attestation
// module uses. Unsealing verifies both the MAC and the measurement policy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sgx/enclave.h"
#include "support/sha256.h"

namespace msv::sgx {

struct SealedBlob {
  Sha256::Digest mr_enclave{};  // sealing policy: MRENCLAVE
  std::vector<std::uint8_t> iv;
  std::vector<std::uint8_t> ciphertext;
  Sha256::Digest mac{};

  // Wire format helpers (what would be written to untrusted storage).
  std::vector<std::uint8_t> serialize() const;
  static SealedBlob deserialize(const std::vector<std::uint8_t>& bytes);
};

// The platform's sealing facility (stands in for EGETKEY).
class SealingPlatform {
 public:
  explicit SealingPlatform(std::string platform_secret)
      : platform_secret_(std::move(platform_secret)) {}

  // Seals `plaintext` to `enclave`'s identity. `iv_seed` makes the IV
  // deterministic for reproducible tests; production callers pass entropy.
  SealedBlob seal(const Enclave& enclave,
                  const std::vector<std::uint8_t>& plaintext,
                  std::uint64_t iv_seed) const;

  // Unseals; throws SecurityFault when the calling enclave's measurement
  // does not match the sealing policy or the blob was tampered with.
  std::vector<std::uint8_t> unseal(const Enclave& enclave,
                                   const SealedBlob& blob) const;

 private:
  // Everything sealing derives from (platform secret, MRENCLAVE) alone:
  // the seal key, and the MAC hash after absorbing its fixed prefix
  // key || "seal-mac-v2" || MRENCLAVE.
  struct Identity {
    Sha256::Digest mr_enclave{};
    Sha256::Digest key{};
    Sha256 mac_prefix;
  };

  // The identity for `mr_enclave`, from the memo when the full
  // measurement matches the last one used, else recomputed (and
  // memoized). The memo is a pure cache: sealed bytes never depend on it.
  const Identity& identity(const Sha256::Digest& mr_enclave) const;
  static Sha256::Digest compute_mac(const Identity& id,
                                    const SealedBlob& blob);
  static void apply_keystream(const Sha256::Digest& key,
                              const std::vector<std::uint8_t>& iv,
                              std::vector<std::uint8_t>& data);

  std::string platform_secret_;
  // Not synchronized: a platform is used from one thread at a time.
  mutable std::optional<Identity> memo_;
};

}  // namespace msv::sgx
