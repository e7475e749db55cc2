// Tests for src/runtime: handles, heap + semispace GC, weak references,
// isolates and value conversion.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/churn.h"
#include "runtime/isolate.h"
#include "sgx/enclave.h"
#include "sim/domain.h"
#include "sim/env.h"
#include "support/error.h"
#include "support/rng.h"

namespace msv::rt {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest()
      : domain_(env_),
        iso_(env_, domain_, Isolate::Config{"test-iso", 1ull << 20}) {}

  Env env_;
  UntrustedDomain domain_;
  Isolate iso_;
};

TEST_F(RuntimeTest, HandleTableBasics) {
  HandleTable t;
  const auto a = t.create(8);
  const auto b = t.create(16);
  EXPECT_EQ(t.get(a), 8u);
  EXPECT_EQ(t.get(b), 16u);
  EXPECT_EQ(t.live(), 2u);
  t.release(a);
  EXPECT_EQ(t.live(), 1u);
  EXPECT_THROW(t.get(a), RuntimeFault);
  const auto c = t.create(24);  // reuses the freed slot
  EXPECT_EQ(c, a);
}

TEST_F(RuntimeTest, AllocAndAccessInstance) {
  Heap& heap = iso_.heap();
  const ObjAddr obj = heap.alloc_instance(/*class_id=*/7, /*field_count=*/3);
  EXPECT_EQ(heap.kind(obj), ObjectKind::kInstance);
  EXPECT_EQ(heap.class_id(obj), 7u);
  EXPECT_EQ(heap.count(obj), 3u);
  EXPECT_NE(heap.identity_hash(obj), 0u);

  heap.set_slot(obj, 0, SlotValue::from_i32(-5));
  heap.set_slot(obj, 1, SlotValue::from_f64(2.5));
  heap.set_slot(obj, 2, SlotValue::from_bool(true));
  EXPECT_EQ(heap.slot(obj, 0).as_i32(), -5);
  EXPECT_DOUBLE_EQ(heap.slot(obj, 1).as_f64(), 2.5);
  EXPECT_TRUE(heap.slot(obj, 2).as_bool());
  EXPECT_EQ(heap.slot(obj, 0).tag, SlotTag::kI32);
}

TEST_F(RuntimeTest, StringsRoundTrip) {
  Heap& heap = iso_.heap();
  const ObjAddr s = heap.alloc_string("montsalvat");
  EXPECT_EQ(heap.kind(s), ObjectKind::kString);
  EXPECT_EQ(heap.string_at(s), "montsalvat");
  EXPECT_EQ(heap.count(s), 10u);
}

TEST_F(RuntimeTest, SlotIndexOutOfRangeThrows) {
  Heap& heap = iso_.heap();
  const ObjAddr obj = heap.alloc_instance(1, 2);
  EXPECT_THROW(heap.slot(obj, 2), RuntimeFault);
  EXPECT_THROW(heap.set_slot(obj, 99, SlotValue::null()), RuntimeFault);
}

TEST_F(RuntimeTest, NullDereferenceThrows) {
  EXPECT_THROW(iso_.heap().kind(kNullAddr), RuntimeFault);
}

TEST_F(RuntimeTest, GcPreservesReachableGraph) {
  Heap& heap = iso_.heap();
  const GcRef root = iso_.make_ref(heap.alloc_instance(1, 2));
  {
    // child reachable only through root
    const ObjAddr child = heap.alloc_string("payload");
    heap.set_slot(root.address(), 0, SlotValue::from_ref(child));
  }
  heap.set_slot(root.address(), 1, SlotValue::from_i32(42));

  const auto gcs_before = heap.stats().gc_count;
  heap.collect();
  EXPECT_EQ(heap.stats().gc_count, gcs_before + 1);

  // The root handle was forwarded and the graph survived.
  EXPECT_EQ(heap.slot(root.address(), 1).as_i32(), 42);
  const ObjAddr child = heap.slot(root.address(), 0).as_ref();
  EXPECT_EQ(heap.string_at(child), "payload");
}

TEST_F(RuntimeTest, GcReclaimsGarbage) {
  Heap& heap = iso_.heap();
  const GcRef keep = iso_.make_ref(heap.alloc_instance(1, 1));
  for (int i = 0; i < 1000; ++i) heap.alloc_string("garbage-garbage");
  const std::uint64_t used_before = heap.used_bytes();
  heap.collect();
  EXPECT_LT(heap.used_bytes(), used_before / 10);
  EXPECT_EQ(heap.kind(keep.address()), ObjectKind::kInstance);
}

TEST_F(RuntimeTest, GcPreservesIdentityHash) {
  Heap& heap = iso_.heap();
  const GcRef obj = iso_.make_ref(heap.alloc_instance(1, 0));
  const std::uint32_t hash = heap.identity_hash(obj.address());
  heap.collect();
  EXPECT_EQ(heap.identity_hash(obj.address()), hash);
}

TEST_F(RuntimeTest, GcHandlesCycles) {
  Heap& heap = iso_.heap();
  const GcRef a = iso_.make_ref(heap.alloc_instance(1, 1));
  const GcRef b = iso_.make_ref(heap.alloc_instance(1, 1));
  heap.set_slot(a.address(), 0, SlotValue::from_ref(b.address()));
  heap.set_slot(b.address(), 0, SlotValue::from_ref(a.address()));
  heap.collect();
  EXPECT_EQ(heap.slot(a.address(), 0).as_ref(), b.address());
  EXPECT_EQ(heap.slot(b.address(), 0).as_ref(), a.address());
}

TEST_F(RuntimeTest, SharedObjectCopiedOnce) {
  Heap& heap = iso_.heap();
  const GcRef a = iso_.make_ref(heap.alloc_instance(1, 1));
  const GcRef b = iso_.make_ref(heap.alloc_instance(1, 1));
  const ObjAddr shared = heap.alloc_string("shared");
  heap.set_slot(a.address(), 0, SlotValue::from_ref(shared));
  heap.set_slot(b.address(), 0, SlotValue::from_ref(shared));
  heap.collect();
  EXPECT_EQ(heap.slot(a.address(), 0).as_ref(),
            heap.slot(b.address(), 0).as_ref());
}

TEST_F(RuntimeTest, AllocationTriggersGcWhenFull) {
  // 64 KiB heap -> 32 KiB semispace; allocate far more garbage than that.
  UntrustedDomain domain(env_);
  Isolate small(env_, domain, Isolate::Config{"small", 64 << 10});
  for (int i = 0; i < 10'000; ++i) small.heap().alloc_string("0123456789abcdef");
  EXPECT_GT(small.heap().stats().gc_count, 0u);
}

TEST_F(RuntimeTest, OutOfMemoryWhenLiveSetTooLarge) {
  UntrustedDomain domain(env_);
  Isolate small(env_, domain, Isolate::Config{"small", 64 << 10});
  std::vector<GcRef> pins;
  EXPECT_THROW(
      {
        for (int i = 0; i < 10'000; ++i) {
          pins.push_back(
              small.make_ref(small.heap().alloc_string("0123456789abcdef")));
        }
      },
      OutOfMemoryError);
}

TEST_F(RuntimeTest, IdentityHashesAreGolden) {
  // The paper's default proxy hash (§5.2) is the identity hash; these are
  // the first eight a heap named "golden" hands out.
  UntrustedDomain domain(env_);
  Isolate iso(env_, domain, Isolate::Config{"golden", 64 << 10});
  const std::vector<std::uint32_t> expected = {
      0x509dfa20u, 0x5d3c2053u, 0xe3067dc2u, 0x53f28cf5u,
      0xf9c4c864u, 0xe6673797u, 0x8c297306u, 0x587e5539u};
  for (const std::uint32_t want : expected) {
    EXPECT_EQ(iso.heap().identity_hash(iso.heap().alloc_string("x")), want);
  }
}

// alloc_churn's window as a FIFO of GcRefs — the shape it had before it
// held raw handle slots — kept as the oracle for slot and layout order.
void deque_churn(Isolate& iso, std::uint64_t total_bytes,
                 std::uint64_t window_bytes, std::uint32_t payload_bytes) {
  const std::string payload(payload_bytes, 's');
  const std::uint64_t box_total =
      sizeof(ObjectHeader) + ((payload_bytes + 7ull) & ~7ull);
  const std::uint64_t live =
      std::max<std::uint64_t>(1, window_bytes / box_total);
  std::deque<GcRef> window;
  for (std::uint64_t i = 0; i < total_bytes / box_total; ++i) {
    window.push_back(iso.make_ref(iso.heap().alloc_string(payload)));
    if (window.size() > live) window.pop_front();
  }
}

// One isolate with a few pinned objects and a non-trivial handle free
// list, so slot reuse order is visible.
struct ChurnSide {
  explicit ChurnSide(std::uint64_t heap_bytes)
      : domain(env), iso(env, domain, Isolate::Config{"churn", heap_bytes}) {
    for (int i = 0; i < 6; ++i) {
      pins.push_back(iso.make_ref(iso.heap().alloc_string("pin")));
    }
    pins.erase(pins.begin() + 3);
    pins.erase(pins.begin() + 1);
  }

  // What the churn leaves behind: clock, heap counters, the pinned
  // objects' addresses and hashes, and the next slots the table hands out.
  std::vector<std::uint64_t> fingerprint() {
    std::vector<std::uint64_t> f = {env.clock.now(),
                                    iso.heap().used_bytes(),
                                    iso.heap().stats().gc_count,
                                    iso.heap().stats().copied_bytes_total,
                                    iso.handles().live()};
    for (const GcRef& p : pins) {
      f.push_back(p.address());
      f.push_back(iso.heap().identity_hash(p.address()));
    }
    for (int i = 0; i < 64; ++i) f.push_back(iso.handles().create(8));
    return f;
  }

  Env env;
  UntrustedDomain domain;
  Isolate iso;
  std::vector<GcRef> pins;
};

TEST_F(RuntimeTest, ChurnSlotOrderMatchesGcRefWindow) {
  ChurnSide oracle(64 << 10);
  ChurnSide churn(64 << 10);
  const std::size_t live_before = churn.iso.handles().live();
  deque_churn(oracle.iso, 200 << 10, 8 << 10, 24);
  const auto r = alloc_churn(churn.iso, 200 << 10, 8 << 10, 24);
  EXPECT_EQ(r.allocations, (200u << 10) / (sizeof(ObjectHeader) + 24));
  EXPECT_GT(churn.iso.heap().stats().gc_count, 0u);
  EXPECT_EQ(churn.iso.handles().live(), live_before);
  EXPECT_EQ(churn.fingerprint(), oracle.fingerprint());
}

TEST_F(RuntimeTest, ChurnOutOfMemoryReleasesWindowInOrder) {
  // A 64 KiB window cannot fit a 32 KiB semispace: the churn throws
  // mid-way and must unwind every slot it held, front to back.
  ChurnSide oracle(64 << 10);
  ChurnSide churn(64 << 10);
  const std::size_t live_before = churn.iso.handles().live();
  EXPECT_THROW(deque_churn(oracle.iso, 256 << 10, 64 << 10, 24),
               OutOfMemoryError);
  EXPECT_THROW(alloc_churn(churn.iso, 256 << 10, 64 << 10, 24),
               OutOfMemoryError);
  EXPECT_EQ(churn.iso.handles().live(), live_before);
  EXPECT_EQ(churn.fingerprint(), oracle.fingerprint());
}

TEST_F(RuntimeTest, WeakRefClearedWhenReferentDies) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  const ObjAddr doomed = heap.alloc_instance(1, 0);
  const auto w = weak.add(doomed, /*payload=*/777);
  EXPECT_FALSE(weak.is_cleared(w));
  heap.collect();  // no root -> dies
  EXPECT_TRUE(weak.is_cleared(w));
  EXPECT_EQ(weak.entry(w).payload, 777u);
}

TEST_F(RuntimeTest, WeakRefForwardedWhenReferentSurvives) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  const GcRef keep = iso_.make_ref(heap.alloc_instance(1, 0));
  const auto w = weak.add(keep.address(), 1);
  heap.collect();
  EXPECT_FALSE(weak.is_cleared(w));
  EXPECT_EQ(weak.entry(w).target, keep.address());
}

TEST_F(RuntimeTest, WeakRefDoesNotKeepObjectAlive) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  weak.add(heap.alloc_string("weakly-held"), 2);
  const std::uint64_t used_before = heap.used_bytes();
  heap.collect();
  EXPECT_LT(heap.used_bytes(), used_before);
  EXPECT_EQ(weak.cleared_count(), 1u);
}

TEST_F(RuntimeTest, RemoveIfCompactsWeakTable) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  const GcRef keep = iso_.make_ref(heap.alloc_instance(1, 0));
  weak.add(keep.address(), 1);
  weak.add(heap.alloc_string("dies"), 2);
  heap.collect();
  weak.remove_if([](const WeakEntry& e) { return e.target == kNullAddr; });
  EXPECT_EQ(weak.size(), 1u);
  EXPECT_EQ(weak.entry(0).payload, 1u);
}

TEST_F(RuntimeTest, WeakSlotsStayStableAcrossSweeps) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  std::vector<GcRef> keep;
  std::vector<std::uint32_t> slots;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const GcRef obj = iso_.make_ref(heap.alloc_instance(1, 0));
    slots.push_back(weak.add(obj.address(), 100 + i));
    keep.push_back(obj);
  }
  // Three of ten die: a sweep tombstones them in place, well under the
  // compaction threshold, so every survivor keeps its slot.
  for (const std::size_t dead : {7u, 2u, 4u}) keep[dead] = GcRef();
  heap.collect();
  const std::uint64_t gen = weak.generation();
  std::vector<std::uint64_t> swept;
  EXPECT_FALSE(weak.sweep_cleared(
      [&](const WeakEntry& e) { swept.push_back(e.payload); }));
  EXPECT_EQ(swept, (std::vector<std::uint64_t>{102, 104, 107}));
  EXPECT_EQ(weak.generation(), gen);
  EXPECT_EQ(weak.size(), 7u);
  EXPECT_EQ(weak.slot_count(), 10u);
  EXPECT_EQ(weak.cleared_count(), 0u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    const WeakEntry& e = weak.entry(slots[i]);
    if (keep[i]) {
      EXPECT_EQ(e.target, keep[i].address());
      EXPECT_EQ(e.payload, 100 + i);
    } else {
      EXPECT_FALSE(e.was_set) << "slot " << i << " is a tombstone";
      EXPECT_FALSE(weak.is_cleared(slots[i]));
    }
  }
  // Three more die: 6 tombstones of 10 slots is past half, so the table
  // compacts, keeping the survivors in insertion order.
  for (const std::size_t dead : {0u, 9u, 5u}) keep[dead] = GcRef();
  heap.collect();
  EXPECT_TRUE(weak.sweep_cleared([](const WeakEntry&) {}));
  EXPECT_GT(weak.generation(), gen);
  EXPECT_EQ(weak.size(), 4u);
  EXPECT_EQ(weak.slot_count(), 4u);
  const std::vector<std::uint64_t> order = {101, 103, 106, 108};
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(weak.entry(i).payload, order[i]);
  }
}

TEST_F(RuntimeTest, WeakCountsMatchRecountOracle) {
  // Seeded add / drop / collect / sweep sequences; after every step the
  // O(1) size() and cleared_count() must equal a recount over the slots,
  // and live slots must stay in insertion order.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Env env;
    UntrustedDomain domain(env);
    Isolate iso(env, domain, Isolate::Config{"weak-oracle", 1ull << 20});
    WeakRefTable& weak = iso.weak_refs();
    Rng rng(seed);
    std::vector<GcRef> keep;
    std::uint64_t next_payload = 0;
    std::uint64_t compactions = 0;
    auto check = [&] {
      std::size_t size = 0, cleared = 0;
      std::uint64_t last = 0;
      for (std::uint32_t i = 0; i < weak.slot_count(); ++i) {
        const WeakEntry& e = weak.entry(i);
        if (!e.was_set) continue;
        ++size;
        if (e.target == kNullAddr) ++cleared;
        if (size > 1) {
          ASSERT_GT(e.payload, last) << "insertion order";
        }
        last = e.payload;
      }
      ASSERT_EQ(weak.size(), size);
      ASSERT_EQ(weak.cleared_count(), cleared);
    };
    for (int step = 0; step < 400; ++step) {
      switch (rng.next_below(4)) {
        case 0:  // add a few, most of them rooted
          for (std::uint64_t n = rng.next_in(1, 12); n > 0; --n) {
            const GcRef obj = iso.make_ref(iso.heap().alloc_instance(1, 1));
            weak.add(obj.address(), ++next_payload);
            if (rng.next_bool(0.8)) keep.push_back(obj);
          }
          break;
        case 1:  // drop some roots
          for (std::uint64_t n = rng.next_below(8); n > 0 && !keep.empty();
               --n) {
            const std::size_t victim = rng.next_below(keep.size());
            keep[victim] = std::move(keep.back());
            keep.pop_back();
          }
          break;
        case 2:
          iso.heap().collect();
          break;
        default: {
          const std::uint64_t gen = weak.generation();
          const std::size_t expect = weak.cleared_count();
          std::size_t seen = 0;
          const bool compacted =
              weak.sweep_cleared([&](const WeakEntry&) { ++seen; });
          ASSERT_EQ(seen, expect);
          ASSERT_EQ(compacted, weak.generation() != gen);
          if (compacted) ++compactions;
        }
      }
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(compactions, 0u) << "seed " << seed << " never compacted";
    // Tombstones never outnumber the entries by more than one slot.
    EXPECT_LE(weak.slot_count(), 2 * weak.size() + 1);
  }
}

// Isolate::to_slot as it was when every list element was held as a
// GcRef-rooted Value (one make_shared root per string) — kept as the
// oracle for handle order: the raw-slot walk must create and release
// handle slots in exactly this order, or the free list, and with it the
// layout after the next collection, drifts.
SlotValue gcref_to_slot(Isolate& iso, const Value& v) {
  if (v.type() != ValueType::kList) return iso.to_slot(v);
  struct Frame {
    const ValueList* input;
    std::vector<Value> rooted;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({&v.as_list(), {}, 0});
  stack.back().rooted.reserve(v.as_list().size());
  while (true) {
    Frame& f = stack.back();
    if (f.next < f.input->size()) {
      const Value& e = (*f.input)[f.next];
      ++f.next;
      if (e.type() == ValueType::kString) {
        f.rooted.emplace_back(
            iso.make_ref(iso.heap().alloc_string(e.as_string())));
      } else if (e.type() == ValueType::kList) {
        stack.push_back({&e.as_list(), {}, 0});
        stack.back().rooted.reserve(e.as_list().size());
      } else {
        f.rooted.push_back(e);
      }
      continue;
    }
    const ObjAddr arr =
        iso.heap().alloc_array(static_cast<std::uint32_t>(f.input->size()));
    const GcRef arr_ref = iso.make_ref(arr);
    for (std::uint32_t i = 0; i < f.rooted.size(); ++i) {
      iso.heap().set_slot(arr_ref.address(), i, iso.to_slot(f.rooted[i]));
    }
    stack.pop_back();
    if (stack.empty()) return SlotValue::from_ref(arr_ref.address());
    stack.back().rooted.emplace_back(iso.make_ref(arr_ref.address()));
  }
}

// One isolate with pinned instances (list elements refer to them) and a
// non-trivial handle free list.
struct ToSlotSide {
  explicit ToSlotSide(std::uint64_t heap_bytes)
      : domain(env), iso(env, domain, Isolate::Config{"to-slot", heap_bytes}) {
    for (int i = 0; i < 8; ++i) pins.push_back(iso.new_instance(1, 1));
    pins.erase(pins.begin() + 5);
    pins.erase(pins.begin() + 2);
  }

  // A seeded nested list of strings, refs to pins and primitives.
  Value make_list(Rng& rng, int depth) {
    ValueList items;
    for (std::uint64_t n = rng.next_below(12); n > 0; --n) {
      switch (rng.next_below(depth < 4 ? 6 : 5)) {
        case 0:
        case 1:
          items.emplace_back(
              std::string(static_cast<std::size_t>(rng.next_in(1, 200)), 'x'));
          break;
        case 2:
          items.emplace_back(pins[rng.next_below(pins.size())]);
          break;
        case 3:
          items.emplace_back(static_cast<std::int64_t>(rng.next_u64()));
          break;
        case 4:
          items.emplace_back();
          break;
        default:
          items.push_back(make_list(rng, depth + 1));
      }
    }
    return Value(std::move(items));
  }

  // Clock, heap counters, the handle free list and every heap byte that
  // matters (each object's header fields and contents, in address order).
  std::vector<std::uint64_t> fingerprint() {
    Heap& heap = iso.heap();
    const HeapStats& st = heap.stats();
    std::vector<std::uint64_t> f = {env.clock.now(), heap.used_bytes(),
                                    st.allocations,  st.allocated_bytes,
                                    st.gc_count,     st.copied_bytes_total,
                                    st.gc_cycles_total, st.last_live_bytes,
                                    iso.handles().live()};
    for (const std::uint32_t slot : iso.handles().free_slots()) {
      f.push_back(slot);
    }
    for (ObjAddr a = 8; a < heap.used_bytes(); a += heap.object_bytes(a)) {
      f.push_back(a);
      f.push_back(static_cast<std::uint64_t>(heap.kind(a)));
      f.push_back(heap.class_id(a));
      f.push_back(heap.count(a));
      f.push_back(heap.identity_hash(a));
      if (heap.kind(a) == ObjectKind::kString) {
        f.push_back(std::hash<std::string_view>{}(heap.string_at(a)));
        continue;
      }
      for (std::uint32_t i = 0; i < heap.count(a); ++i) {
        const SlotValue sv = heap.slot(a, i);
        f.push_back(static_cast<std::uint64_t>(sv.tag));
        f.push_back(sv.bits);
      }
    }
    return f;
  }

  Env env;
  UntrustedDomain domain;
  Isolate iso;
  std::vector<GcRef> pins;
};

TEST_F(RuntimeTest, ToSlotHandleOrderMatchesGcRefWalk) {
  // 48 KiB (24 KiB semispaces) fills within a few conversions, so
  // collections land in the middle of a list's elements.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    ToSlotSide oracle(48 << 10);
    ToSlotSide fast(48 << 10);
    Rng rng_o(seed), rng_f(seed);
    std::deque<GcRef> recent_o, recent_f;  // keep the last few results live
    std::uint64_t collected_mid_conversion = 0;
    for (int round = 0; round < 60; ++round) {
      const Value in_o = oracle.make_list(rng_o, 0);
      const Value in_f = fast.make_list(rng_f, 0);
      const std::uint64_t gcs = fast.iso.heap().stats().gc_count;
      const SlotValue out_o = gcref_to_slot(oracle.iso, in_o);
      const SlotValue out_f = fast.iso.to_slot(in_f);
      if (fast.iso.heap().stats().gc_count > gcs) ++collected_mid_conversion;
      ASSERT_EQ(out_f.tag, out_o.tag);
      ASSERT_EQ(out_f.bits, out_o.bits);
      recent_o.push_back(oracle.iso.make_ref(out_o.as_ref()));
      recent_f.push_back(fast.iso.make_ref(out_f.as_ref()));
      if (recent_o.size() > 3) {
        recent_o.pop_front();
        recent_f.pop_front();
      }
      ASSERT_EQ(fast.fingerprint(), oracle.fingerprint())
          << "seed " << seed << " round " << round;
    }
    EXPECT_GT(collected_mid_conversion, 0u) << "seed " << seed;
  }
}

TEST_F(RuntimeTest, ToSlotUnwindsHandlesInGcRefOrder) {
  // Both ways out of a conversion must leave the same free list: running
  // out of heap mid-walk, and a foreign ref found while filling an array.
  {
    ToSlotSide oracle(16 << 10);
    ToSlotSide fast(16 << 10);
    ValueList big;
    for (int i = 0; i < 3; ++i) {
      ValueList inner;
      for (int j = 0; j < 20; ++j) inner.emplace_back(std::string(300, 'o'));
      big.emplace_back(std::move(inner));
      big.emplace_back(std::string(40, 'p'));
    }
    const Value v(std::move(big));
    EXPECT_THROW(gcref_to_slot(oracle.iso, v), OutOfMemoryError);
    EXPECT_THROW(fast.iso.to_slot(v), OutOfMemoryError);
    EXPECT_EQ(fast.iso.handles().live(), oracle.iso.handles().live());
    EXPECT_EQ(fast.fingerprint(), oracle.fingerprint());
  }
  {
    ToSlotSide oracle(1 << 20);
    ToSlotSide fast(1 << 20);
    ToSlotSide foreign(1 << 20);
    auto build = [&](ToSlotSide& side) {
      return Value(ValueList{
          Value("a"),
          Value(ValueList{Value("b"), Value(side.pins[0]),
                          Value(ValueList{Value("c"), Value("d")}),
                          Value(foreign.pins[0]), Value("e")}),
          Value("f")});
    };
    EXPECT_THROW(gcref_to_slot(oracle.iso, build(oracle)), SecurityFault);
    EXPECT_THROW(fast.iso.to_slot(build(fast)), SecurityFault);
    EXPECT_EQ(fast.fingerprint(), oracle.fingerprint());
  }
}

TEST_F(RuntimeTest, GcRefSharesRootSlot) {
  const GcRef a = iso_.make_ref(iso_.heap().alloc_instance(1, 0));
  const std::size_t live = iso_.handles().live();
  const GcRef b = a;  // copy shares the root
  EXPECT_EQ(iso_.handles().live(), live);
  EXPECT_TRUE(a.same_object(b));
}

TEST_F(RuntimeTest, GcRefReleasesRootOnDestruction) {
  const std::size_t live_before = iso_.handles().live();
  {
    const GcRef r = iso_.make_ref(iso_.heap().alloc_instance(1, 0));
    EXPECT_EQ(iso_.handles().live(), live_before + 1);
  }
  EXPECT_EQ(iso_.handles().live(), live_before);
}

TEST_F(RuntimeTest, ValueFieldRoundTrip) {
  const GcRef obj = iso_.new_instance(1, 5);
  iso_.set_field(obj, 0, Value(std::int32_t{41}));
  iso_.set_field(obj, 1, Value("alice"));
  iso_.set_field(obj, 2, Value(ValueList{Value(1), Value("x")}));
  iso_.set_field(obj, 3, Value(3.25));
  iso_.set_field(obj, 4, Value(obj));

  EXPECT_EQ(iso_.get_field(obj, 0).as_i32(), 41);
  EXPECT_EQ(iso_.get_field(obj, 1).as_string(), "alice");
  const Value list = iso_.get_field(obj, 2);
  ASSERT_EQ(list.as_list().size(), 2u);
  EXPECT_EQ(list.as_list()[0].as_i32(), 1);
  EXPECT_EQ(list.as_list()[1].as_string(), "x");
  EXPECT_DOUBLE_EQ(iso_.get_field(obj, 3).as_f64(), 3.25);
  EXPECT_TRUE(iso_.get_field(obj, 4).as_ref().same_object(obj));
}

TEST_F(RuntimeTest, NeutralValuesAreCopies) {
  // Stored strings are snapshots: mutating the Value after the store must
  // not affect the heap (neutral classes "may evolve independently", §5.1).
  const GcRef obj = iso_.new_instance(1, 1);
  std::string s = "original";
  iso_.set_field(obj, 0, Value(s));
  s[0] = 'X';
  EXPECT_EQ(iso_.get_field(obj, 0).as_string(), "original");
}

TEST_F(RuntimeTest, CrossIsolateReferenceRejected) {
  UntrustedDomain domain2(env_);
  Isolate other(env_, domain2, Isolate::Config{"other", 1 << 20});
  const GcRef foreign = other.new_instance(1, 0);
  const GcRef obj = iso_.new_instance(1, 1);
  EXPECT_THROW(iso_.set_field(obj, 0, Value(foreign)), SecurityFault);
}

TEST_F(RuntimeTest, FieldSurvivesGcDuringStringStore) {
  UntrustedDomain domain(env_);
  Isolate small(env_, domain, Isolate::Config{"small", 256 << 10});
  const GcRef obj = small.new_instance(1, 1);
  // Repeatedly storing strings forces collections mid set_field.
  for (int i = 0; i < 5'000; ++i) {
    small.set_field(obj, 0, Value(std::string(64, 'a' + (i % 26))));
  }
  EXPECT_GT(small.heap().stats().gc_count, 0u);
  EXPECT_EQ(small.get_field(obj, 0).as_string()[0], 'a' + (4999 % 26));
}

TEST_F(RuntimeTest, EnclaveGcAboutAnOrderOfMagnitudeSlower) {
  // Fig. 5a: the same GC work inside an enclave costs ~10x more.
  auto run_gc = [](Env& env, MemoryDomain& domain) {
    Isolate iso(env, domain, Isolate::Config{"gc-iso", 32 << 20});
    std::vector<GcRef> live;
    for (int i = 0; i < 20'000; ++i) {
      live.push_back(iso.make_ref(iso.heap().alloc_string(
          "some live payload kept across the collection....")));
    }
    const Cycles before = env.clock.now();
    iso.heap().collect();
    return env.clock.now() - before;
  };

  Env env_out;
  UntrustedDomain out(env_out);
  const Cycles outside = run_gc(env_out, out);

  Env env_in;
  sgx::Enclave enclave(env_in, "e", Sha256::hash("img"), 1 << 20);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain in(env_in, enclave);
  const Cycles inside = run_gc(env_in, in);

  const double ratio = static_cast<double>(inside) / static_cast<double>(outside);
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 20.0);
}

TEST_F(RuntimeTest, ImageHeapStartupTouchesPages) {
  Env env;
  sgx::Enclave enclave(env, "e", Sha256::hash("img"), 1 << 20);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain domain(env, enclave);
  const auto faults_before = enclave.epc().stats().faults;
  Isolate iso(env, domain,
              Isolate::Config{"with-image", 1 << 20, /*image_heap=*/64 << 10});
  EXPECT_EQ(enclave.epc().stats().faults, faults_before + 16);
}

TEST_F(RuntimeTest, ValueTypeChecksThrow) {
  Value v(std::int32_t{1});
  EXPECT_THROW(v.as_string(), RuntimeFault);
  EXPECT_THROW(v.as_bool(), RuntimeFault);
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(v.as_i64(), 1) << "i32 widens to i64";
  EXPECT_DOUBLE_EQ(v.as_f64(), 1.0) << "i32 widens to f64";
}

TEST_F(RuntimeTest, ValuePayloadBytes) {
  EXPECT_EQ(Value(std::int32_t{1}).payload_bytes(), 4u);
  EXPECT_EQ(Value("abcd").payload_bytes(), 8u);
  const Value list(ValueList{Value(std::int32_t{1}), Value("ab")});
  EXPECT_EQ(list.payload_bytes(), 4u + 4u + 6u);
}

// ---- Deep neutral-object graphs ----------------------------------------
//
// Checkpoints and RMI arguments legally carry 100k-deep nested lists, so
// every graph walk (including ~Value) uses an explicit work-list. These
// tests fail by crashing the process (native stack overflow) on the old
// recursive walks.

// [[[...leaf...]]] nested `depth` times, built iteratively.
Value deep_chain(std::size_t depth, Value leaf) {
  Value cur = std::move(leaf);
  for (std::size_t i = 0; i < depth; ++i) {
    ValueList wrap;
    wrap.push_back(std::move(cur));
    cur = Value(std::move(wrap));
  }
  return cur;
}

// Walks down single-element lists, checks the leaf, returns the depth.
std::size_t chain_depth(const Value& v, std::int32_t expect_leaf) {
  std::size_t depth = 0;
  const Value* cur = &v;
  while (cur->type() == ValueType::kList) {
    EXPECT_EQ(cur->as_list().size(), 1u);
    cur = &cur->as_list()[0];
    ++depth;
  }
  EXPECT_EQ(cur->as_i32(), expect_leaf);
  return depth;
}

TEST_F(RuntimeTest, DeepValueChainDestructsWithoutNativeRecursion) {
  constexpr std::size_t kDepth = 300'000;
  {
    const Value v = deep_chain(kDepth, Value(std::int32_t{7}));
    EXPECT_EQ(chain_depth(v, 7), kDepth);
    EXPECT_EQ(v.payload_bytes(), 4u * kDepth + 4u);
  }  // ~Value drains 300k uniquely-owned frames here
}

TEST_F(RuntimeTest, SiblingSharedDeepChainDrainsOnLastOwner) {
  // Two siblings share one deep chain: neither copy is uniquely owned
  // when the first dies, so the drain must trigger for the *last* sibling
  // destroyed, not just the stack head.
  constexpr std::size_t kDepth = 200'000;
  {
    Value chain = deep_chain(kDepth, Value(std::int32_t{3}));
    ValueList sibs;
    sibs.push_back(chain);             // shares the chain head
    sibs.push_back(std::move(chain));  // same head again
    const Value parent(std::move(sibs));
  }
}

TEST_F(RuntimeTest, DeepValueDebugStringIsIterative) {
  constexpr std::size_t kDepth = 100'000;
  const Value v = deep_chain(kDepth, Value(std::int32_t{3}));
  const std::string s = v.to_debug_string();
  ASSERT_EQ(s.size(), 2 * kDepth + 1);
  EXPECT_EQ(s[0], '[');
  EXPECT_EQ(s[kDepth], '3');
  EXPECT_EQ(s[s.size() - 1], ']');
}

TEST_F(RuntimeTest, DeepListRoundTripsThroughHeapSlots) {
  // to_slot materializes one heap array per nesting level; from_slot walks
  // them back out. 100k levels needs a larger heap than the fixture's 1MB
  // but must never need a larger native stack.
  constexpr std::size_t kDepth = 100'000;
  Isolate big(env_, domain_, Isolate::Config{"deep-iso", 64ull << 20});
  const GcRef holder = big.new_instance(1, 1);
  big.set_field(holder, 0, deep_chain(kDepth, Value(std::int32_t{41})));
  const Value back = big.get_field(holder, 0);
  EXPECT_EQ(chain_depth(back, 41), kDepth);
}

}  // namespace
}  // namespace msv::rt
