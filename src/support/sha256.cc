#include "support/sha256.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define MSV_SHA256_HAVE_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace msv {
namespace {

constexpr std::size_t kBlockSize = 64;

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, std::uint32_t n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef MSV_SHA256_HAVE_SHANI

// The Intel SHA extensions process two rounds per SHA256RNDS2 with the
// working variables packed as ABEF / CDGH, and derive the message
// schedule four words at a time with SHA256MSG1 / SHA256MSG2.
__attribute__((target("sha,sse4.1"))) void block_shani_impl(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* k = reinterpret_cast<const __m128i*>(kK.data());

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);              // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);        // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);     // CDGH

  for (; nblocks > 0; --nblocks, blocks += kBlockSize) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg[4];
    // Sixteen groups of four rounds. Group g consumes schedule words
    // 4g..4g+3 from msg[g % 4] and, while its rounds run, advances the
    // schedule: MSG2 finishes words 4(g+1).. and MSG1 starts 4(g+3)..
    // Fully unrolled, msg[] and the g-range tests fold away.
#if defined(__clang__)
#pragma unroll
#else
#pragma GCC unroll 16
#endif
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = msg[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      }
      __m128i m = _mm_add_epi32(cur, _mm_load_si128(k + g));
      state1 = _mm_sha256rnds2_epu32(state1, state0, m);
      if (g >= 3 && g <= 14) {
        __m128i& nxt = msg[(g + 1) % 4];
        nxt = _mm_add_epi32(nxt, _mm_alignr_epi8(cur, msg[(g + 3) % 4], 4));
        nxt = _mm_sha256msg2_epu32(nxt, cur);
      }
      m = _mm_shuffle_epi32(m, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, m);
      if (g >= 1 && g <= 12) {
        __m128i& later = msg[(g + 3) % 4];
        later = _mm_sha256msg1_epu32(later, cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);         // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);      // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);   // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);      // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

bool cpu_has_shani() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#endif  // MSV_SHA256_HAVE_SHANI

void compress(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t nblocks) {
  static const sha256_internal::BlockFn fn = sha256_internal::block_selected();
  fn(state, blocks, nblocks);
}

}  // namespace

namespace sha256_internal {

void block_portable(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[i * 4]) << 24 |
             static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

BlockFn block_shani() {
#ifdef MSV_SHA256_HAVE_SHANI
  if (cpu_has_shani()) return &block_shani_impl;
#endif
  return nullptr;
}

BlockFn block_selected() {
  const BlockFn shani = block_shani();
  return shani != nullptr ? shani : &block_portable;
}

}  // namespace sha256_internal

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const void* data, std::size_t len) {
  MSV_CHECK_MSG(!finished_, "Sha256::update after finish");
  if (len == 0) return;
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks compress straight from the input.
  const std::size_t whole = len / kBlockSize;
  if (whole > 0) {
    compress(state_.data(), p, whole);
    p += whole * kBlockSize;
    len -= whole * kBlockSize;
  }
  if (len > 0) std::memcpy(buffer_.data(), p, len);
  buffer_len_ = len;
}

Sha256::Digest Sha256::finish() {
  MSV_CHECK_MSG(!finished_, "Sha256::finish called twice");
  finished_ = true;
  // update() never leaves a full buffer, so the 0x80 marker always fits;
  // the 8-byte length needs a second block when fewer than 8 bytes remain.
  const std::uint64_t bit_len = total_len_ * 8;
  std::size_t n = buffer_len_;
  buffer_[n++] = 0x80;
  if (n > kBlockSize - 8) {
    std::memset(buffer_.data() + n, 0, kBlockSize - n);
    compress(state_.data(), buffer_.data(), 1);
    n = 0;
  }
  std::memset(buffer_.data() + n, 0, kBlockSize - 8 - n);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_.data(), buffer_.data(), 1);

  Digest d;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j)
      d[i * 4 + j] = static_cast<std::uint8_t>(state_[i] >> (8 * (3 - j)));
  return d;
}

Sha256::Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

std::string Sha256::hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace msv
