// The three workloads of the repo benchmark. Each runs one pass: set-up,
// then a timed phase whose inputs are a pure function of the seed, then
// the output checks. main.cc repeats passes for the requested
// host time and aggregates them.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/heap.h"
#include "sgx/bridge.h"
#include "sgx/epc.h"
#include "sgx/tcs.h"

namespace msvbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  // fleet_serve: a ladder rate passes only under this p99 (sim us).
  double p99_limit_us = 5000;
};

// Counters read from the layers' public stats structs, as deltas over the
// timed phase. A layer a workload does not touch stays 0.
struct Counters {
  std::uint64_t rmi_invocations = 0;
  std::uint64_t rmi_transitions = 0;
  std::uint64_t rmi_fast_path_calls = 0;
  std::uint64_t rmi_proxies_created = 0;
  std::uint64_t gc_helper_scans = 0;
  std::uint64_t gc_helper_collected = 0;
  std::uint64_t gc_helper_eviction_calls = 0;
  std::uint64_t gc_helper_entries_scanned = 0;
  std::uint64_t heap_allocations = 0;
  std::uint64_t heap_allocated_bytes = 0;
  std::uint64_t heap_gc_count = 0;
  std::uint64_t heap_copied_bytes = 0;
  std::uint64_t heap_gc_cycles = 0;
  std::uint64_t epc_accesses = 0;
  std::uint64_t epc_faults = 0;
  std::uint64_t epc_evictions = 0;
  std::uint64_t bridge_ecalls = 0;
  std::uint64_t bridge_ocalls = 0;
  std::uint64_t bridge_bytes_in = 0;
  std::uint64_t bridge_bytes_out = 0;
  std::uint64_t tcs_waits = 0;
  std::uint64_t tcs_wait_cycles = 0;
  std::uint64_t seal_checkpoints = 0;
  std::uint64_t seal_replicated_blobs = 0;
  std::uint64_t seal_replicated_bytes = 0;
  std::uint64_t seal_checkpoint_corrupt = 0;
  std::uint64_t sched_context_switches = 0;
  std::uint64_t sched_sleeps = 0;
  std::uint64_t sched_wakes = 0;
  std::uint64_t sched_idle_cycles = 0;
  std::uint64_t fleet_accepted = 0;
  std::uint64_t fleet_completed = 0;
  std::uint64_t fleet_shed_admission = 0;
  std::uint64_t fleet_shed_queue = 0;
  std::uint64_t fleet_shed_recovery = 0;
  std::uint64_t fleet_shed_migrating = 0;
  std::uint64_t fleet_shed_slo = 0;
  std::uint64_t fleet_failed = 0;
  std::uint64_t fleet_retries = 0;
  std::uint64_t fleet_promotions = 0;
  std::uint64_t fleet_recovery_cycles = 0;
  std::uint64_t fleet_max_queue_depth = 0;
  // Completed requests whose checkpoint seal did not happen, and the
  // deposit units the final balances are short by (see fleet_serve.cc).
  std::uint64_t fleet_unsealed_completions = 0;
  std::uint64_t fleet_deposits_lost = 0;
  std::uint64_t faults_enclave_losses = 0;
  std::uint64_t faults_transition_failures = 0;
  std::uint64_t faults_epc_spikes = 0;
  std::uint64_t faults_tcs_bursts = 0;
  std::uint64_t faults_blob_corruptions = 0;
  std::uint64_t faults_skipped_corruptions = 0;
};

// Field-by-field a - b: the timed-phase delta of two counter snapshots.
inline Counters operator-(const Counters& a, const Counters& b) {
  constexpr std::size_t kWords = sizeof(Counters) / sizeof(std::uint64_t);
  static_assert(kWords * sizeof(std::uint64_t) == sizeof(Counters));
  std::uint64_t wa[kWords], wb[kWords];
  std::memcpy(wa, &a, sizeof wa);
  std::memcpy(wb, &b, sizeof wb);
  for (std::size_t i = 0; i < kWords; ++i) wa[i] -= wb[i];
  Counters out;
  std::memcpy(&out, wa, sizeof wa);
  return out;
}

// Accumulate one layer's stats struct into a snapshot.
inline void add(Counters& c, const msv::sgx::BridgeStats& b) {
  c.bridge_ecalls += b.ecalls;
  c.bridge_ocalls += b.ocalls;
  c.bridge_bytes_in += b.bytes_in;
  c.bridge_bytes_out += b.bytes_out;
}
inline void add(Counters& c, const msv::sgx::EpcStats& e) {
  c.epc_accesses += e.accesses;
  c.epc_faults += e.faults;
  c.epc_evictions += e.evictions;
}
inline void add(Counters& c, const msv::sgx::TcsStats& t) {
  c.tcs_waits += t.waits;
  c.tcs_wait_cycles += t.wait_cycles;
}
inline void add(Counters& c, const msv::rt::HeapStats& h) {
  c.heap_allocations += h.allocations;
  c.heap_allocated_bytes += h.allocated_bytes;
  c.heap_gc_count += h.gc_count;
  c.heap_copied_bytes += h.copied_bytes_total;
  c.heap_gc_cycles += h.gc_cycles_total;
}

// Every layer the benchmark wraps, in report order. Each gets
// `<name>_host_s` and `<name>_sim_cycles` per-layer metrics.
inline const char* const kLayers[] = {
    "rmi.invoke",          "rmi.gc_helper.pump", "runtime.heap.alloc",
    "runtime.heap.collect", "sched.run",          "fleet.submit",
    "clock.advance",
};

struct LayerTime {
  std::string name;
  std::uint64_t calls = 0;
  Cycles sim_cycles = 0;  // self cycles inside the layer's calls
  double host_s = 0;      // self host time (traced passes only)
};

struct Pass {
  double setup_s = 0;  // see fastest_setup_s
  double timed_host_s = 0;
  std::vector<double> segment_host_s;  // see Recorder::segment_host_s
  Cycles timed_cycles = 0;
  Cycles unattributed_cycles = 0;
  Cycles final_clock = 0;
  std::uint64_t ops = 0;
  // Per-op simulated latency in cycles (one sample per op, or per
  // collection in enclave_gc_storm).
  std::vector<Cycles> latency_cycles;
  // Workload overrides; negative = derive from ops and timed cycles.
  double sim_ops_per_s = -1;
  double max_rate_rps = -1;
  std::uint64_t attempted = 0;
  // Failed + shed operations, plus (fleet_serve) tenants whose final
  // balance falls short of their accepted deposits.
  std::uint64_t failed = 0;
  // Output checks that failed; the first few keep their message.
  std::uint64_t checks_failed = 0;
  std::vector<std::string> check_failures;
  void fail_check(const std::string& what) {
    if (check_failures.size() < 8) check_failures.push_back(what);
    ++checks_failed;
  }
  Counters counters;
  std::vector<LayerTime> layers;
  std::vector<std::string> notes;  // printed once, from the first pass
  // Traced passes keep their spans for the span file.
  std::vector<Span> spans;
  std::vector<std::string> span_names;
  double cpu_hz = 3.8e9;
  // Filled by main.cc after the pass: its sim_digest and the process's
  // peak resident set at that point.
  std::uint64_t digest = 0;
  double rss_mb = 0;
};

// Builds a workload's set-up `times` times, keeps the last build in `out`
// and returns the fastest build's host seconds. One set-up takes only
// milliseconds, so a single one is at the mercy of other processes on the
// host; interference only ever slows a build down, so the fastest of
// several is the steady figure. Tearing a build down is not timed.
template <class T, class Build>
double fastest_setup_s(int times, std::unique_ptr<T>& out, Build&& build) {
  double best = 0;
  for (int i = 0; i < times; ++i) {
    out.reset();
    const std::int64_t begin = Recorder::host_ns();
    out = build();
    const double s = static_cast<double>(Recorder::host_ns() - begin) * 1e-9;
    if (i == 0 || s < best) best = s;
  }
  return best;
}

// Copies the timed-phase accounting out of the recorder.
void absorb(Pass& pass, const Recorder& rec, Cycles final_clock);

Pass run_rmi_lifecycle(const Options& opt);
Pass run_fleet_serve(const Options& opt);
Pass run_enclave_gc_storm(const Options& opt);

}  // namespace msvbench
