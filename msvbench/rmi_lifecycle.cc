// rmi_lifecycle: one closed-loop caller drives the proxy/mirror RMI layer
// and the GC helpers of one PartitionedApp over the micro app.
//
// Each round constructs trusted Worker proxies from the untrusted side,
// calls set/set_list into the enclave, calls Driver.call_sink /
// call_sink_list out of it, reads the values back, drops a share of the
// proxy pool, collects the untrusted heap, advances the clock to the next
// GC-helper scan instant and pumps the helpers. The pool holds tens of
// thousands of live proxies, so host time goes to marshalling, Value
// churn and the helper scan; the EPC never fills.
#include <algorithm>
#include <memory>
#include <string>

#include "apps/synthetic/generator.h"
#include "core/montsalvat.h"
#include "support/rng.h"
#include "workloads.h"

namespace msvbench {
namespace {

using msv::Env;
using msv::Rng;
using msv::Side;
using msv::rt::Value;
using msv::rt::ValueList;

constexpr std::size_t kInitialPool = 20'000;
constexpr int kRounds = 8;
constexpr double kScanPeriodSeconds = 1.0;  // §5.5 "e.g., every second"
constexpr std::uint64_t kTrustedHeapBytes = 32ull << 20;  // 16 MiB semispaces
constexpr std::size_t kHotWorkers = 500;
// Set-up builds per pass (see fastest_setup_s).
constexpr int kSetups = 5;
// Calls per round. The counts are fixed so the op mix, and with it every
// latency quantile, stays put from seed to seed; the seed draws who is
// called, with what.
constexpr int kConstructs = 300;
constexpr int kSets = 300;
constexpr int kLists = 1'200;
constexpr int kSinks = 20;
constexpr int kSinkLists = 40;

// Absolute counters of every layer the app touches.
Counters snapshot(msv::core::PartitionedApp& app) {
  Counters c;
  const msv::rmi::RmiStats& r = app.rmi().stats();
  c.rmi_invocations = r.remote_invocations;
  c.rmi_transitions = r.transitions;
  c.rmi_fast_path_calls = r.fast_path_calls;
  c.rmi_proxies_created = r.proxies_created;
  for (const Side side : {Side::kUntrusted, Side::kTrusted}) {
    const msv::rmi::GcHelperStats& g = app.rmi().gc_stats(side);
    c.gc_helper_scans += g.scans;
    c.gc_helper_collected += g.proxies_collected;
    c.gc_helper_eviction_calls += g.eviction_calls;
  }
  add(c, app.untrusted_context().isolate().heap().stats());
  add(c, app.trusted_context().isolate().heap().stats());
  add(c, app.bridge().stats());
  add(c, app.enclave().epc().stats());
  add(c, app.enclave().tcs().stats());
  return c;
}

// A list of 10-100 strings of 8-24 bytes (16 on average): the byte count
// varies continuously, so marshalling costs do too.
Value string_list(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.next_in(10, 100));
  ValueList items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string s(static_cast<std::size_t>(rng.next_in(8, 24)), 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.next_below(26));
    items.emplace_back(std::move(s));
  }
  return Value(std::move(items));
}

// The set-up: the app, the Driver, the hot workers and the proxy pool.
// Members are destroyed in reverse order, so the proxies go before the app.
struct Setup {
  Setup() : app(msv::apps::synthetic::build_micro_app(), config()) {
    auto& u = app.untrusted_context();
    driver = u.construct("Driver", {});
    for (std::size_t i = 0; i < kHotWorkers; ++i) {
      hot.push_back(u.construct("Worker", {}));
    }
    pool.reserve(kInitialPool * 2);
    for (std::size_t i = 0; i < kInitialPool; ++i) {
      pool.push_back(u.construct("Worker", {}));
    }
  }

  static msv::core::AppConfig config() {
    msv::core::AppConfig config;
    config.gc_scan_period_seconds = kScanPeriodSeconds;
    // Lists go to a fixed set of hot workers, whose mirrors drop the
    // previous list on every call. With the default 512 MiB heap the
    // enclave's collector would never run and the garbage would pile up
    // for the whole pass; a smaller heap lets it run, as in a long-lived
    // enclave, and keeps the footprint the same on every seed.
    config.trusted_heap_bytes = kTrustedHeapBytes;
    return config;
  }

  msv::core::PartitionedApp app;
  Value driver;
  std::vector<Value> hot;
  std::vector<Value> pool;
};

}  // namespace

Pass run_rmi_lifecycle(const Options& opt) {
  Pass pass;
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x726d69);

  std::unique_ptr<Setup> setup;
  pass.setup_s = fastest_setup_s(kSetups, setup,
                                 [] { return std::make_unique<Setup>(); });
  msv::core::PartitionedApp& app = setup->app;
  auto& u = app.untrusted_context();
  Env& env = app.env();
  const Value& driver = setup->driver;
  const std::vector<Value>& hot = setup->hot;
  std::vector<Value>& pool = setup->pool;
  pass.cpu_hz = env.clock.hz();

  Recorder rec(env.clock, opt.trace);
  const std::uint32_t l_invoke = rec.layer("rmi.invoke");
  const std::uint32_t l_collect = rec.layer("runtime.heap.collect");
  const std::uint32_t l_pump = rec.layer("rmi.gc_helper.pump");
  const std::uint32_t l_advance = rec.layer("clock.advance");
  const msv::Cycles period = env.clock.seconds_to_cycles(kScanPeriodSeconds);

  // One remote call: metered, timed on the virtual clock, and counted.
  auto remote = [&](auto&& fn) {
    const msv::Cycles t0 = env.clock.now();
    Value v = rec.call(l_invoke, fn);
    pass.latency_cycles.push_back(env.clock.now() - t0);
    return v;
  };
  auto fail = [&](const std::string& what) { pass.fail_check(what); };

  // The helpers first run one period after the runtime started; force a
  // scan now so the timed phase starts on a known schedule.
  app.rmi().force_gc_scan();
  msv::Cycles next_scan = env.clock.now() + period;
  const Counters before = snapshot(app);
  std::uint64_t entries_scanned = 0;
  rec.begin_timed();
  for (int round = 0; round < kRounds; ++round) {
    rec.set_request(static_cast<std::uint64_t>(round));
    // Construct trusted Worker proxies from the untrusted side.
    for (int i = 0; i < kConstructs; ++i) {
      pool.push_back(remote([&] { return u.construct("Worker", {}); }));
    }
    // out->in: set on seeded pool members, set_list on seeded hot workers.
    std::vector<std::pair<std::size_t, std::int32_t>> written;
    for (int i = 0; i < kSets; ++i) {
      const std::size_t w = rng.next_below(pool.size());
      const auto v = static_cast<std::int32_t>(rng.next_below(1u << 30));
      remote([&] { return u.invoke(pool[w].as_ref(), "set", {Value(v)}); });
      written.emplace_back(w, v);
    }
    for (int i = 0; i < kLists; ++i) {
      const std::size_t w = rng.next_below(hot.size());
      Value items = string_list(rng);
      remote([&] { return u.invoke(hot[w].as_ref(), "set_list", {items}); });
    }
    // in->out: the trusted Driver calls untrusted Sinks.
    for (int i = 0; i < kSinks; ++i) {
      const std::int64_t n = rng.next_in(8, 32);
      const Value r = remote([&] {
        return u.invoke(driver.as_ref(), "call_sink", {Value(n)});
      });
      if (r.as_i64() != n) fail("call_sink returned a wrong count");
    }
    for (int i = 0; i < kSinkLists; ++i) {
      const std::int64_t n = rng.next_in(2, 6);
      Value items = string_list(rng);
      const Value r = remote([&] {
        return u.invoke(driver.as_ref(), "call_sink_list", {Value(n), items});
      });
      if (r.as_i64() != n) fail("call_sink_list returned a wrong count");
    }
    // Read back: the last write to each worker wins.
    std::stable_sort(written.begin(), written.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < written.size(); ++i) {
      if (i + 1 < written.size() && written[i + 1].first == written[i].first) {
        continue;
      }
      const auto [w, v] = written[i];
      const Value r =
          remote([&] { return u.invoke(pool[w].as_ref(), "get", {}); });
      if (r.as_i32() != v) fail("get returned a value other than written");
    }
    // Drop a seeded share of the pool (swap-remove), then collect.
    const double share = 0.01 + 0.01 * rng.next_double();
    const auto drop = static_cast<std::size_t>(
        share * static_cast<double>(pool.size()));
    for (std::size_t i = 0; i < drop; ++i) {
      const std::size_t victim = rng.next_below(pool.size());
      pool[victim] = std::move(pool.back());
      pool.pop_back();
    }
    rec.call(l_collect, [&] { u.isolate().heap().collect(); });
    // A round's calls take less simulated time than one scan period, so
    // the helpers only ever run here: advance to their next due instant.
    if (env.clock.now() >= next_scan) fail("a round overran the scan period");
    rec.call(l_advance, [&] { env.clock.advance(next_scan - env.clock.now()); });
    const std::uint64_t weak_u = u.isolate().weak_refs().size();
    const std::uint64_t weak_t =
        app.trusted_context().isolate().weak_refs().size();
    const std::uint64_t scans_u = app.rmi().gc_stats(Side::kUntrusted).scans;
    const std::uint64_t scans_t = app.rmi().gc_stats(Side::kTrusted).scans;
    rec.call(l_pump, [&] { app.rmi().pump_gc(); });
    const std::uint64_t new_u =
        app.rmi().gc_stats(Side::kUntrusted).scans - scans_u;
    const std::uint64_t new_t = app.rmi().gc_stats(Side::kTrusted).scans - scans_t;
    if (new_u != 1 || new_t != 1) fail("the GC helpers did not scan when due");
    entries_scanned += weak_u * new_u + weak_t * new_t;
    next_scan += period;
  }
  rec.end_timed();
  absorb(pass, rec, env.clock.now());

  // §5.5 consistency: every live untrusted proxy has exactly one trusted
  // mirror, and nothing else is registered.
  const std::size_t live = app.rmi().live_proxy_count(Side::kUntrusted);
  const std::size_t mirrors = app.rmi().registry(Side::kTrusted).size();
  const std::size_t held = pool.size() + hot.size() + 1;  // + the Driver
  if (live != held || mirrors != held) {
    fail("proxy/mirror mismatch: " + std::to_string(live) + " live proxies, " +
         std::to_string(mirrors) + " mirrors, " + std::to_string(held) +
         " held");
  }

  pass.counters = snapshot(app) - before;
  pass.counters.gc_helper_entries_scanned = entries_scanned;

  pass.ops = pass.latency_cycles.size();
  pass.attempted = pass.ops;
  pass.notes.push_back("rmi_lifecycle: " + std::to_string(kRounds) +
                       " rounds, pool " + std::to_string(pool.size()) +
                       " proxies at the end, scan period " +
                       std::to_string(kScanPeriodSeconds) + " s");
  return pass;
}

}  // namespace msvbench
