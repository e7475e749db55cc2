// enclave_gc_storm: one closed-loop caller drives two raw isolates on one
// clock — one over an EnclaveDomain, one over an UntrustedDomain — through
// seeded allocation-churn rounds, each followed by a collection.
//
// The live windows sweep from below the usable EPC to well past it (the
// EPC is shrunk so the cliff sits at a heap size the host can afford), so
// the allocator, the copying collector, the EPC model and the clock do the
// work, with no RMI at all. Benchmark-owned sentinel strings sit in the
// live set across rounds and must keep their payload through every
// collection.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>

#include "runtime/churn.h"
#include "runtime/isolate.h"
#include "sgx/enclave.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "workloads.h"

namespace msvbench {
namespace {

using msv::Cycles;
using msv::Env;
using msv::Rng;

constexpr std::uint64_t kEpcBytes = 512ull << 10;
constexpr std::uint64_t kHeapBytes = 4ull << 20;  // two 2 MiB semispaces
// Live windows: a geometric grid from a quarter of the usable EPC to three
// times it. Every pass runs each (window, box size) pair once, in a seeded
// order, with a seeded jitter of up to 1% on the window.
constexpr std::size_t kLevels = 24;
constexpr double kWindowLo = 0.25;
constexpr double kWindowHi = 3.0;
// Set-up builds per pass (see fastest_setup_s).
constexpr int kSetups = 9;
constexpr std::uint32_t kBoxes[] = {24, 56, 120, 248};
constexpr int kSentinelsPerRound = 32;
constexpr std::size_t kSentinelsKept = 96;

struct Sentinel {
  msv::rt::GcRef ref;
  std::string payload;
};

struct Side {
  std::unique_ptr<msv::MemoryDomain> domain;
  std::unique_ptr<msv::rt::Isolate> iso;
  std::deque<Sentinel> sentinels;
  Cycles last_gc_cycles = 0;
};

struct Machine {
  explicit Machine(const msv::CostModel& cost) : env(cost) {
    const auto digest = msv::Sha256::hash("msvbench-enclave-gc-storm");
    enclave = std::make_unique<msv::sgx::Enclave>(env, "gc-storm", digest,
                                                  1u << 20);
    enclave->init(digest);
    trusted.domain =
        std::make_unique<msv::sgx::EnclaveDomain>(env, *enclave);
    untrusted.domain = std::make_unique<msv::UntrustedDomain>(env);
    trusted.iso = std::make_unique<msv::rt::Isolate>(
        env, *trusted.domain,
        msv::rt::Isolate::Config{"storm-enclave", kHeapBytes, 0});
    untrusted.iso = std::make_unique<msv::rt::Isolate>(
        env, *untrusted.domain,
        msv::rt::Isolate::Config{"storm-untrusted", kHeapBytes, 0});
    // Lazy set-up finishes here, not in the timed phase: one churn through
    // both semispaces of each heap grows them to full size.
    for (Side* s : {&trusted, &untrusted}) {
      msv::rt::alloc_churn(*s->iso, 2 * kHeapBytes, kHeapBytes / 8);
      s->iso->heap().collect();
    }
  }

  Env env;
  std::unique_ptr<msv::sgx::Enclave> enclave;
  Side trusted;
  Side untrusted;
};

}  // namespace

Pass run_enclave_gc_storm(const Options& opt) {
  Pass pass;
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x67632d73);

  msv::CostModel cost = msv::CostModel::paper();
  cost.epc_usable_bytes = kEpcBytes;
  std::unique_ptr<Machine> machine;
  pass.setup_s = fastest_setup_s(
      kSetups, machine, [&] { return std::make_unique<Machine>(cost); });
  Machine& m = *machine;
  Env& env = m.env;
  pass.cpu_hz = env.clock.hz();

  Recorder rec(env.clock, opt.trace);
  const std::uint32_t l_alloc = rec.layer("runtime.heap.alloc");
  const std::uint32_t l_collect = rec.layer("runtime.heap.collect");

  // Each collection's pause, read from the heap's own GC-cycle counter.
  for (Side* s : {&m.trusted, &m.untrusted}) {
    msv::rt::Heap& heap = s->iso->heap();
    s->last_gc_cycles = heap.stats().gc_cycles_total;
    heap.set_gc_observer([&pass, s, &heap](std::uint64_t, std::uint64_t) {
      const Cycles total = heap.stats().gc_cycles_total;
      pass.latency_cycles.push_back(total - s->last_gc_cycles);
      s->last_gc_cycles = total;
    });
  }

  constexpr std::size_t kBoxCount = sizeof(kBoxes) / sizeof(kBoxes[0]);
  constexpr std::size_t kRounds = kLevels * kBoxCount;
  std::vector<std::size_t> order(kRounds);
  for (std::size_t i = 0; i < kRounds; ++i) order[i] = i;
  for (std::size_t i = kRounds - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }

  auto fail = [&](const std::string& what) { pass.fail_check(what); };

  auto snapshot = [&m] {
    Counters c;
    add(c, m.trusted.iso->heap().stats());
    add(c, m.untrusted.iso->heap().stats());
    add(c, m.enclave->epc().stats());
    return c;
  };
  const Counters before = snapshot();
  rec.begin_timed();
  for (std::size_t round = 0; round < kRounds; ++round) {
    rec.set_request(round);
    const std::size_t level = order[round] / kBoxCount;
    const std::uint32_t box = kBoxes[order[round] % kBoxCount];
    const double scale =
        kWindowLo * std::pow(kWindowHi / kWindowLo,
                             static_cast<double>(level) / (kLevels - 1));
    const double jitter = 0.99 + 0.02 * rng.next_double();
    const auto window = static_cast<std::uint64_t>(
        scale * jitter * static_cast<double>(kEpcBytes));
    const std::uint64_t total = window + kHeapBytes / 2;
    for (Side* s : {&m.trusted, &m.untrusted}) {
      msv::rt::Isolate& iso = *s->iso;
      rec.call(l_alloc, [&] {
        for (int i = 0; i < kSentinelsPerRound; ++i) {
          std::string payload(static_cast<std::size_t>(rng.next_in(8, 64)),
                              'x');
          for (char& c : payload) {
            c = static_cast<char>('A' + rng.next_below(58));
          }
          const msv::rt::ObjAddr addr = iso.heap().alloc_string(payload);
          s->sentinels.push_back({iso.make_ref(addr), std::move(payload)});
        }
        msv::rt::alloc_churn(iso, total, window, box);
      });
      rec.call(l_collect, [&] { iso.heap().collect(); });
      for (const Sentinel& st : s->sentinels) {
        if (iso.heap().string_at(st.ref.address()) != st.payload) {
          fail("sentinel payload changed across a collection in " +
               iso.name());
        }
      }
      while (s->sentinels.size() > kSentinelsKept) s->sentinels.pop_front();
    }
  }
  rec.end_timed();
  absorb(pass, rec, env.clock.now());
  for (Side* s : {&m.trusted, &m.untrusted}) {
    s->iso->heap().set_gc_observer(nullptr);
  }

  pass.counters = snapshot() - before;
  const Counters& c = pass.counters;
  pass.ops = c.heap_allocations;
  pass.attempted = pass.ops;
  if (pass.latency_cycles.size() != c.heap_gc_count) {
    fail("observed pauses disagree with the heaps' collection count");
  }
  pass.notes.push_back(
      "enclave_gc_storm: " + std::to_string(kRounds) +
      " rounds per isolate, usable EPC " + std::to_string(kEpcBytes >> 10) +
      " KiB, semispace " + std::to_string(kHeapBytes >> 11) +
      " KiB, live windows 0.25x-3x the EPC");
  return pass;
}

}  // namespace msvbench
