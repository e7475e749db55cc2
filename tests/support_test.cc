// Tests for src/support: clock/timers, byte buffers, hashes, stats, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/clock.h"
#include "support/error.h"
#include "support/fnv.h"
#include "support/md5.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "support/stats.h"
#include "support/table.h"

namespace msv {
namespace {

// A failed check names its file relative to the repository root, so the
// message (and any RMI payload carrying it) is the same in every checkout.
TEST(CheckFailed, MessageNamesRepoRelativePath) {
  const auto message_of = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const RuntimeFault& e) {
      return e.what();
    }
    return "";
  };
  const std::string here =
      message_of([] { MSV_CHECK_MSG(1 + 1 == 3, "arithmetic"); });
  EXPECT_NE(here.find(" at tests/support_test.cc:"), std::string::npos)
      << here;
  EXPECT_NE(here.find(": arithmetic"), std::string::npos) << here;

  ByteReader reader(nullptr, 0);
  const std::string library = message_of([&] { reader.seek(1); });
  EXPECT_NE(library.find(" at src/support/bytes.cc:"), std::string::npos)
      << library;
}

TEST(VirtualClock, StartsAtZero) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_DOUBLE_EQ(clock.seconds(), 0.0);
}

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock clock(1e9);
  clock.advance(500);
  clock.advance(1500);
  EXPECT_EQ(clock.now(), 2000u);
  EXPECT_DOUBLE_EQ(clock.seconds(), 2e-6);
}

TEST(VirtualClock, SecondsToCyclesUsesFrequency) {
  VirtualClock clock(2e9);
  EXPECT_EQ(clock.seconds_to_cycles(1.5), 3'000'000'000u);
}

TEST(VirtualClock, OneShotTimerFiresAtDeadline) {
  VirtualClock clock(1e9);
  Cycles fired_at = 0;
  clock.schedule_at(1000, [&] { fired_at = clock.now(); });
  clock.advance(999);
  EXPECT_EQ(fired_at, 0u);
  clock.advance(500);
  EXPECT_EQ(fired_at, 1000u);
  EXPECT_EQ(clock.now(), 1499u);
}

TEST(VirtualClock, PeriodicTimerFiresAtExactInstants) {
  VirtualClock clock(1e9);
  std::vector<Cycles> instants;
  clock.schedule_every(100, [&] { instants.push_back(clock.now()); });
  clock.advance(350);
  ASSERT_EQ(instants.size(), 3u);
  EXPECT_EQ(instants[0], 100u);
  EXPECT_EQ(instants[1], 200u);
  EXPECT_EQ(instants[2], 300u);
}

TEST(VirtualClock, CancelStopsPeriodicTimer) {
  VirtualClock clock(1e9);
  int fires = 0;
  const auto id = clock.schedule_every(10, [&] { ++fires; });
  clock.advance(25);
  EXPECT_EQ(fires, 2);
  clock.cancel(id);
  clock.advance(100);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClock, TimersOrderedByDeadlineThenId) {
  VirtualClock clock(1e9);
  std::vector<int> order;
  clock.schedule_at(50, [&] { order.push_back(1); });
  clock.schedule_at(50, [&] { order.push_back(2); });
  clock.schedule_at(20, [&] { order.push_back(3); });
  clock.advance(60);
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(VirtualClock, TimerCanScheduleAnotherTimer) {
  VirtualClock clock(1e9);
  bool second_fired = false;
  clock.schedule_at(10, [&] {
    clock.schedule_at(clock.now() + 10, [&] { second_fired = true; });
  });
  clock.advance(30);
  EXPECT_TRUE(second_fired);
}

TEST(VirtualClock, TimerDueExactlyAtTargetFires) {
  VirtualClock clock(1e9);
  clock.advance(40);
  Cycles fired_at = 0;
  clock.schedule_at(100, [&] { fired_at = clock.now(); });
  clock.advance(59);
  EXPECT_EQ(fired_at, 0u);
  clock.advance(1);  // now() + c lands exactly on the deadline
  EXPECT_EQ(fired_at, 100u);
  EXPECT_EQ(clock.now(), 100u);
  EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClock, CallbackSchedulingEarlierTimerFiresOnTime) {
  // The callback queues a timer ahead of the next pending deadline (1000);
  // a later advance that stops short of 1000 but passes 150 must fire it.
  VirtualClock clock(1e9);
  std::vector<Cycles> instants;
  clock.schedule_at(1000, [&] { instants.push_back(clock.now()); });
  clock.schedule_at(100, [&] {
    clock.schedule_at(clock.now() + 50,
                      [&] { instants.push_back(clock.now()); });
  });
  clock.advance(120);
  EXPECT_TRUE(instants.empty());
  clock.advance(40);
  EXPECT_EQ(instants, (std::vector<Cycles>{150}));
  EXPECT_EQ(clock.now(), 160u);
  clock.advance(840);
  EXPECT_EQ(instants, (std::vector<Cycles>{150, 1000}));
}

TEST(VirtualClock, ScheduleInsideMeasureDetachedFiresAfterwards) {
  VirtualClock clock(1e9);
  clock.advance(500);
  Cycles fired_at = 0;
  const Cycles charged = clock.measure_detached([&] {
    clock.schedule_at(clock.now() + 10, [&] { fired_at = clock.now(); });
    clock.advance(100);  // detached: accumulated, no timer fires
  });
  EXPECT_EQ(charged, 100u);
  EXPECT_EQ(clock.now(), 500u);
  EXPECT_EQ(fired_at, 0u);
  EXPECT_EQ(clock.pending_timers(), 1u);
  clock.advance(10);
  EXPECT_EQ(fired_at, 510u);
  EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClock, CancelOfFiredOneShotIsNoOp) {
  // Regression: the cancel used to be recorded even for an id no longer
  // queued, so pending_timers() underflowed to SIZE_MAX.
  VirtualClock clock(1e9);
  int fires = 0;
  const auto id = clock.schedule_at(10, [&] { ++fires; });
  clock.advance(20);
  ASSERT_EQ(fires, 1);
  clock.cancel(id);
  EXPECT_EQ(clock.pending_timers(), 0u);
  clock.schedule_at(30, [&] { ++fires; });
  EXPECT_EQ(clock.pending_timers(), 1u);
  clock.advance(20);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClock, DoubleCancelIsNoOp) {
  VirtualClock clock(1e9);
  int fires = 0;
  const auto a = clock.schedule_at(10, [&] { ++fires; });
  clock.schedule_at(20, [&] { ++fires; });
  clock.cancel(a);
  clock.cancel(a);
  EXPECT_EQ(clock.pending_timers(), 1u);
  clock.advance(30);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClock, CancelledEarliestTimerDoesNotHideNextOne) {
  VirtualClock clock(1e9);
  std::vector<int> fired;
  const auto first = clock.schedule_at(100, [&] { fired.push_back(1); });
  clock.schedule_at(200, [&] { fired.push_back(2); });
  clock.cancel(first);
  clock.advance(150);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(clock.pending_timers(), 1u);
  clock.advance(49);
  EXPECT_TRUE(fired.empty());
  clock.advance(1);
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClock, PeriodicTimerCanCancelItself) {
  VirtualClock clock(1e9);
  int fires = 0;
  std::uint64_t id = 0;
  id = clock.schedule_every(10, [&] {
    if (++fires == 3) clock.cancel(id);
  });
  clock.advance(100);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(clock.pending_timers(), 0u);
  clock.cancel(id);
  EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(VirtualClock, PastDeadlineThrows) {
  VirtualClock clock(1e9);
  clock.advance(100);
  EXPECT_THROW(clock.schedule_at(50, [] {}), RuntimeFault);
}

TEST(ByteBuffer, PrimitivesRoundTrip) {
  ByteBuffer buf;
  buf.put_u8(0xab);
  buf.put_u16(0x1234);
  buf.put_u32(0xdeadbeef);
  buf.put_u64(0x0123456789abcdefull);
  buf.put_i32(-42);
  buf.put_i64(-1'000'000'000'000ll);
  buf.put_f64(3.14159);
  ByteReader r(buf);
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1'000'000'000'000ll);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(ByteBuffer, VarintRoundTrip) {
  ByteBuffer buf;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                  0xffffffffull, 0xffffffffffffffffull};
  for (const auto v : values) buf.put_varint(v);
  ByteReader r(buf);
  for (const auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(ByteBuffer, StringRoundTrip) {
  ByteBuffer buf;
  buf.put_string("hello");
  buf.put_string("");
  buf.put_string(std::string(1000, 'x'));
  ByteReader r(buf);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string(1000, 'x'));
}

TEST(ByteReader, TruncatedInputThrows) {
  ByteBuffer buf;
  buf.put_u16(7);
  ByteReader r(buf);
  EXPECT_THROW(r.get_u32(), RuntimeFault);
}

TEST(ByteReader, SeekAndPosition) {
  ByteBuffer buf;
  buf.put_u32(1);
  buf.put_u32(2);
  ByteReader r(buf);
  r.seek(4);
  EXPECT_EQ(r.get_u32(), 2u);
  r.seek(0);
  EXPECT_EQ(r.get_u32(), 1u);
  EXPECT_THROW(r.seek(100), RuntimeFault);
}

TEST(BufferArena, ReusesReleasedCapacity) {
  BufferArena arena;
  ByteBuffer b = arena.acquire();
  for (int i = 0; i < 64; ++i) b.put_u32(i);
  const std::uint8_t* storage = b.data();
  arena.release(std::move(b));
  EXPECT_EQ(arena.pooled(), 1u);

  ByteBuffer c = arena.acquire();
  EXPECT_EQ(arena.pooled(), 0u);
  EXPECT_EQ(c.size(), 0u) << "recycled buffers come back empty";
  c.put_u8(1);
  EXPECT_EQ(c.data(), storage) << "same allocation, no fresh malloc";
  EXPECT_EQ(arena.stats().acquires, 2u);
  EXPECT_EQ(arena.stats().reuses, 1u);
}

TEST(BufferArena, OversizedAndEmptyBuffersNotPooled) {
  BufferArena arena;
  arena.release(ByteBuffer());  // no storage to keep
  EXPECT_EQ(arena.pooled(), 0u);

  ByteBuffer huge = arena.acquire();
  for (int i = 0; i < (2 << 20); ++i) huge.put_u8(0);  // > 1 MiB cap
  arena.release(std::move(huge));
  EXPECT_EQ(arena.pooled(), 0u) << "huge payloads must not pin their storage";
}

TEST(BufferArena, LeaseReturnsBufferOnDestruction) {
  BufferArena arena;
  {
    ArenaLease lease(arena);
    lease->put_u32(7);
    EXPECT_EQ(arena.pooled(), 0u);
  }
  EXPECT_EQ(arena.pooled(), 1u);
  {
    ArenaLease lease(arena);
    EXPECT_EQ(arena.stats().reuses, 1u);
    ArenaLease moved(std::move(lease));
    moved->put_u8(1);
  }
  EXPECT_EQ(arena.pooled(), 1u) << "moved-from lease must not double-release";
}

// RFC 1321 test vectors.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(Md5::hash("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex(Md5::hash("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex(Md5::hash("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex(Md5::hash("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex(Md5::hash("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

// MD5 as RFC 1321 writes it, with the padding fed one byte at a time —
// the shape Md5::finish had before it padded in one pass — kept as the
// oracle for the one-pass padding.
std::array<std::uint8_t, 16> reference_md5(const std::string& msg) {
  static const std::uint32_t kS[64] = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
      5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
      4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
  std::uint32_t k[64];
  for (int i = 0; i < 64; ++i) {
    k[i] = static_cast<std::uint32_t>(
        std::floor(std::fabs(std::sin(i + 1.0)) * 4294967296.0));
  }
  std::uint32_t st[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
  std::vector<std::uint8_t> block;
  auto push = [&](std::uint8_t b) {
    block.push_back(b);
    if (block.size() < 64) return;
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
      m[i] = block[4 * i] | block[4 * i + 1] << 8 | block[4 * i + 2] << 16 |
             static_cast<std::uint32_t>(block[4 * i + 3]) << 24;
    }
    std::uint32_t a = st[0], b2 = st[1], c = st[2], d = st[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b2 & c) | (~b2 & d);
        g = i;
      } else if (i < 32) {
        f = (d & b2) | (~d & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b2 ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b2 | ~d);
        g = (7 * i) % 16;
      }
      const std::uint32_t x = a + f + k[i] + m[g];
      a = d;
      d = c;
      c = b2;
      b2 += (x << kS[i]) | (x >> (32 - kS[i]));
    }
    st[0] += a;
    st[1] += b2;
    st[2] += c;
    st[3] += d;
    block.clear();
  };
  for (const char ch : msg) push(static_cast<std::uint8_t>(ch));
  push(0x80);
  while (block.size() != 56) push(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 0; i < 8; ++i) push(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::array<std::uint8_t, 16> out;
  for (int i = 0; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>(st[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

TEST(Md5, OnePassPaddingMatchesBytewiseReferenceAtEveryLength) {
  // 0-200 bytes crosses every padding case: the marker and length in the
  // same block (< 56 bytes buffered), the length spilling into a second
  // block (56-63), and the block boundaries themselves, one to three
  // blocks deep. Each message is also fed in uneven pieces.
  Rng rng(1321);
  for (std::size_t len = 0; len <= 200; ++len) {
    std::string msg(len, '\0');
    for (char& c : msg) c = static_cast<char>(rng.next_below(256));
    const auto want = reference_md5(msg);
    ASSERT_EQ(Md5::hash(msg), want) << "length " << len;
    Md5 pieces;
    for (std::size_t at = 0; at < len;) {
      const std::size_t n = std::min<std::size_t>(len - at, 1 + at % 7);
      pieces.update(msg.data() + at, n);
      at += n;
    }
    ASSERT_EQ(pieces.finish(), want) << "length " << len << " in pieces";
  }
  EXPECT_EQ(Md5::hex(reference_md5("abc")),
            "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, IncrementalMatchesOneShot) {
  Md5 h;
  h.update("mess");
  h.update("age ");
  h.update("digest");
  EXPECT_EQ(Md5::hex(h.finish()), "f96b697d7cb7938d525a2f31aaf161d0");
}

TEST(Md5, MultiBlockInput) {
  const std::string input(1000, 'z');
  Md5 one;
  one.update(input);
  Md5 chunked;
  for (std::size_t i = 0; i < input.size(); i += 77) {
    chunked.update(input.substr(i, 77));
  }
  EXPECT_EQ(one.finish(), chunked.finish());
}

// FIPS 180-4 test vectors.
TEST(Sha256, FipsVectors) {
  EXPECT_EQ(Sha256::hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Sha256::hex(Sha256::hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("ab");
  h.update("c");
  EXPECT_EQ(Sha256::hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, FipsTwoBlockAndMillionA) {
  // FIPS 180-4 / NIST CSRC examples: the 896-bit message needs a second
  // block for its length, and 10^6 'a' crosses 15625 block boundaries.
  EXPECT_EQ(Sha256::hex(Sha256::hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(Sha256::hex(Sha256::hash(std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// FIPS 180-4 §5.1.1 padding written out by hand and compressed with the
// portable block loop: an oracle independent of Sha256::finish().
Sha256::Digest reference_digest(const std::string& msg) {
  std::string padded = msg;
  padded.push_back(static_cast<char>(0x80));
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<char>(bits >> (8 * i)));
  }
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  sha256_internal::block_portable(
      state, reinterpret_cast<const std::uint8_t*>(padded.data()),
      padded.size() / 64);
  Sha256::Digest d;
  for (int i = 0; i < 32; ++i) {
    d[i] = static_cast<std::uint8_t>(state[i / 4] >> (8 * (3 - i % 4)));
  }
  return d;
}

TEST(Sha256, EveryLengthAnyChunkingMatchesOneShot) {
  // Lengths 0..256 cover every padding case, including the 55/56 and
  // 63/64 byte boundaries where the length spills into a second block.
  Rng rng(0x5ead);
  for (std::size_t len = 0; len <= 256; ++len) {
    std::string msg(len, '\0');
    for (char& c : msg) c = static_cast<char>(rng.next_below(256));
    const Sha256::Digest one_shot = Sha256::hash(msg);
    ASSERT_EQ(one_shot, reference_digest(msg)) << "length " << len;
    for (int trial = 0; trial < 4; ++trial) {
      Sha256 h;
      std::size_t pos = 0;
      while (pos < len) {
        const std::size_t take =
            std::min<std::size_t>(len - pos, rng.next_below(80));
        h.update(msg.data() + pos, take);
        pos += take;
      }
      ASSERT_EQ(h.finish(), one_shot) << "length " << len << " trial "
                                      << trial;
    }
  }
}

TEST(Sha256, CopiedMidstateContinuesIdentically) {
  const std::string prefix(75, 'p');  // one block plus a partial buffer
  Sha256 base;
  base.update(prefix);
  for (const std::string suffix : {"", "x", "a longer suffix that spans "
                                           "the rest of the block and more"}) {
    Sha256 copy = base;
    copy.update(suffix);
    EXPECT_EQ(copy.finish(), Sha256::hash(prefix + suffix)) << suffix;
  }
  // The copies left the original untouched.
  EXPECT_EQ(base.finish(), Sha256::hash(prefix));
}

TEST(Sha256, ShaNiBlockMatchesPortable) {
  const sha256_internal::BlockFn shani = sha256_internal::block_shani();
  if (shani == nullptr) {
    EXPECT_EQ(sha256_internal::block_selected(),
              &sha256_internal::block_portable);
    GTEST_SKIP() << "CPU lacks SHA-NI (CPUID.7.EBX[29]) or SSSE3/SSE4.1";
  }
  EXPECT_EQ(sha256_internal::block_selected(), shani);
  Rng rng(0x51a);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t nblocks = 1 + rng.next_below(3);
    std::uint8_t blocks[3 * 64];
    for (std::size_t i = 0; i < nblocks * 64; ++i) {
      blocks[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::uint32_t expect[8];
    std::uint32_t got[8];
    for (int i = 0; i < 8; ++i) {
      expect[i] = got[i] = static_cast<std::uint32_t>(rng.next_u64());
    }
    sha256_internal::block_portable(expect, blocks, nblocks);
    shani(got, blocks, nblocks);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(got[i], expect[i]) << "trial " << trial << " word " << i;
    }
  }
}

TEST(Fnv, KnownValues) {
  // FNV-1a 64 of the empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), kFnvOffset64);
  // Stability check (value computed once and frozen).
  EXPECT_EQ(fnv1a64("hello"), 0xa430d84680aabd0bull);
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  EXPECT_NE(rng.next_u64(), rng.next_u64());
}

TEST(Samples, SummaryStatistics) {
  Samples s;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.mean(), RuntimeFault);
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(5e-9), "5.0 ns");
  EXPECT_EQ(format_seconds(2.5e-6), "2.50 us");
  EXPECT_EQ(format_seconds(3.2e-3), "3.20 ms");
  EXPECT_EQ(format_seconds(1.5), "1.500 s");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.5 MiB");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), RuntimeFault);
}

}  // namespace
}  // namespace msv
