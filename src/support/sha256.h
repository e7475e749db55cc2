// SHA-256 (FIPS 180-4). Used by the SGX substrate for enclave measurement:
// the image builder EADD/EEXTENDs every page of the trusted image into a
// measurement that load-time verification checks (§2.1: "cryptographically
// hashed for verification at runtime"), and by sealed storage for its key
// derivation, keystream and MAC.
//
// The compression function is chosen once per process from CPUID: the
// SHA-NI instructions where the CPU has them, the portable loop otherwise.
// Both compute the same function; the portable loop is the reference the
// tests hold the SHA-NI path to.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace msv {

class Sha256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  Sha256();

  // A copy carries the whole midstate: hashing a shared prefix once and
  // continuing from copies gives the same digests as hashing each message
  // from scratch.
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }
  Digest finish();

  static Digest hash(std::string_view s);
  static std::string hex(const Digest& d);

 private:
  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  bool finished_ = false;
};

namespace sha256_internal {

// Compresses `nblocks` consecutive 64-byte blocks into `state`.
using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                         std::size_t nblocks);

// The portable FIPS 180-4 loop; runs on every CPU.
void block_portable(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t nblocks);

// The SHA-NI block function, or nullptr when this CPU (or this build
// target) lacks the SHA extensions, SSSE3 or SSE4.1.
BlockFn block_shani();

// The block function Sha256 uses, selected once from CPUID.
BlockFn block_selected();

}  // namespace sha256_internal
}  // namespace msv
