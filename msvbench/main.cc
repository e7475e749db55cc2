// The repo benchmark's main program: runs passes of one workload for the
// requested host time, checks determinism across them, aggregates the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
// and prints the result line last.
//
//   msvbench --workload <rmi_lifecycle|fleet_serve|enclave_gc_storm>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--p99-limit-us <us>]
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace msvbench {

void absorb(Pass& pass, const Recorder& rec, Cycles final_clock) {
  pass.timed_host_s = rec.timed_host_s();
  pass.segment_host_s = rec.segment_host_s();
  pass.timed_cycles = rec.timed_cycles();
  pass.unattributed_cycles = rec.unattributed_cycles();
  pass.final_clock = final_clock;
  const std::vector<double> host = rec.trace()
                                       ? rec.layer_host_s()
                                       : std::vector<double>(
                                             rec.layer_names().size(), 0.0);
  for (std::uint32_t i = 0; i < rec.layer_names().size(); ++i) {
    pass.layers.push_back(
        {rec.layer_names()[i], rec.calls(i), rec.layer_cycles(i), host[i]});
  }
  if (rec.trace()) {
    pass.spans = rec.spans();
    pass.span_names = rec.layer_names();
  }
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

const LayerTime* find_layer(const Pass& p, const std::string& name) {
  for (const LayerTime& l : p.layers) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

// Simulated seconds of the timed phase, without the idle time the
// benchmark inserts itself (clock.advance to the GC helpers' next scan).
double sim_seconds(const Pass& p) {
  const LayerTime* idle = find_layer(p, "clock.advance");
  const Cycles busy = p.timed_cycles - (idle != nullptr ? idle->sim_cycles : 0);
  return static_cast<double>(busy) / p.cpu_hz;
}

double sim_ops_per_s(const Pass& p) {
  return p.sim_ops_per_s >= 0 ? p.sim_ops_per_s
                              : ratio(static_cast<double>(p.ops),
                                      sim_seconds(p));
}

// Everything simulated a pass produced: a host-only change leaves it
// byte-identical for a fixed seed.
std::uint64_t sim_digest(const Pass& p) {
  Digest d;
  d.add(p.final_clock);
  d.add(p.timed_cycles);
  d.add(p.unattributed_cycles);
  d.add(p.ops);
  Cycles lat_sum = 0;
  for (const Cycles c : p.latency_cycles) lat_sum += c;
  d.add(lat_sum);
  d.add(static_cast<std::uint64_t>(p.latency_cycles.size()));
  static_assert(sizeof(Counters) % sizeof(std::uint64_t) == 0);
  std::uint64_t words[sizeof(Counters) / sizeof(std::uint64_t)];
  std::memcpy(words, &p.counters, sizeof words);
  for (const std::uint64_t w : words) d.add(w);
  for (const LayerTime& l : p.layers) {
    d.add(l.name);
    d.add(l.calls);
    d.add(l.sim_cycles);
  }
  d.add(static_cast<std::uint64_t>(std::llround(p.max_rate_rps * 1000.0)));
  return d.value();
}

struct Latency {
  double p50_us = 0;
  Tail tail;
};

Latency latency_of(const Pass& p) {
  std::vector<double> us;
  us.reserve(p.latency_cycles.size());
  for (const Cycles c : p.latency_cycles) {
    us.push_back(static_cast<double>(c) * 1e6 / p.cpu_hz);
  }
  std::sort(us.begin(), us.end());
  return {quantile(us, 0.5), tail_of(us)};
}

// The passes the host-time figures use. A run makes at least this many,
// and the fastest set-up and fastest-segment minimums take exactly the
// first this many: a minimum over every pass that fits in --seconds would
// fall further the faster the code is, and overstate a speed-up. Each
// count fills about 25 s of a 30 s run on an unloaded 4-core x86-64 VM (a
// pass takes about 2.1 s in fleet_serve, 0.75 s in enclave_gc_storm and
// 0.7 s in rmi_lifecycle): the longer the window, the likelier each
// segment meets a quiet stretch of the host.
std::size_t host_passes(const Options& opt) {
  const std::size_t n = opt.workload == "fleet_serve"        ? 12
                        : opt.workload == "enclave_gc_storm" ? 32
                                                             : 36;
  // A traced run spends half its time on each kind of pass.
  return opt.trace ? std::max<std::size_t>(2, n / 2) : n;
}

// Timed host seconds with each segment at its fastest over the first `n`
// passes.
double fastest_host_s(const std::vector<Pass>& passes, std::size_t n) {
  std::vector<std::vector<double>> segments;
  for (std::size_t i = 0; i < n && i < passes.size(); ++i) {
    segments.push_back(passes[i].segment_host_s);
  }
  return fastest_segments_s(segments);
}

std::vector<Metric> end_to_end(const std::vector<Pass>& passes,
                               std::size_t n) {
  double setup_s = passes.front().setup_s;
  for (std::size_t i = 1; i < n && i < passes.size(); ++i) {
    setup_s = std::min(setup_s, passes[i].setup_s);
  }
  const Pass& first = passes.front();
  const Latency lat = latency_of(first);
  const double sim_ops = sim_ops_per_s(first);
  const double max_rate = first.max_rate_rps >= 0 ? first.max_rate_rps : sim_ops;
  const double host_s = fastest_host_s(passes, n);
  return {
      {"setup_s", setup_s, "s"},
      {"host_ops_per_s", ratio(static_cast<double>(first.ops), host_s), "1/s"},
      {"host_s_per_sim_s", ratio(host_s, sim_seconds(first)), "ratio"},
      // High-water mark after the first pass: later passes only add
      // allocator fragmentation, which would grow with the run's length.
      {"peak_rss_mb", first.rss_mb, "MB"},
      {"sim_ops_per_s", sim_ops, "1/s"},
      {"sim_latency_p50_us", lat.p50_us, "us"},
      {"sim_latency_tail_us", lat.tail.value, "us"},
      {"sim_max_rate_rps", max_rate, "1/s"},
  };
}

const Pass& fastest(const std::vector<Pass>& passes) {
  return *std::min_element(passes.begin(), passes.end(),
                           [](const Pass& a, const Pass& b) {
                             return a.timed_host_s < b.timed_host_s;
                           });
}

// Counters and cycles are identical in every pass; host times come from
// the fastest traced pass.
std::vector<Metric> per_layer(const Pass& p, double overhead_frac) {
  const Counters& c = p.counters;
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"rmi.invocations", n(c.rmi_invocations), "count"},
      {"rmi.transitions", n(c.rmi_transitions), "count"},
      {"rmi.calls_per_transition",
       ratio(n(c.rmi_invocations), n(c.rmi_transitions)), "ratio"},
      {"rmi.fast_path_share",
       ratio(n(c.rmi_fast_path_calls), n(c.rmi_invocations)), "ratio"},
      {"rmi.proxies_created", n(c.rmi_proxies_created), "count"},
      {"rmi.gc_helper.scans", n(c.gc_helper_scans), "count"},
      {"rmi.gc_helper.proxies_collected", n(c.gc_helper_collected), "count"},
      {"rmi.gc_helper.eviction_calls", n(c.gc_helper_eviction_calls),
       "count"},
      {"rmi.gc_helper.entries_scanned", n(c.gc_helper_entries_scanned),
       "count"},
      {"rmi.gc_helper.useful_ratio",
       ratio(n(c.gc_helper_collected), n(c.gc_helper_entries_scanned)),
       "ratio"},
      {"runtime.heap.allocations", n(c.heap_allocations), "count"},
      {"runtime.heap.allocated_bytes", n(c.heap_allocated_bytes), "bytes"},
      {"runtime.heap.gc_count", n(c.heap_gc_count), "count"},
      {"runtime.heap.copied_bytes", n(c.heap_copied_bytes), "bytes"},
      {"runtime.heap.gc_sim_cycles", n(c.heap_gc_cycles), "cycles"},
      {"sgx.epc.accesses", n(c.epc_accesses), "count"},
      {"sgx.epc.faults", n(c.epc_faults), "count"},
      {"sgx.epc.evictions", n(c.epc_evictions), "count"},
      {"sgx.epc.hit_ratio",
       c.epc_accesses > 0 ? 1.0 - ratio(n(c.epc_faults), n(c.epc_accesses))
                          : 0.0,
       "ratio"},
      {"sgx.bridge.ecalls", n(c.bridge_ecalls), "count"},
      {"sgx.bridge.ocalls", n(c.bridge_ocalls), "count"},
      {"sgx.bridge.bytes_in", n(c.bridge_bytes_in), "bytes"},
      {"sgx.bridge.bytes_out", n(c.bridge_bytes_out), "bytes"},
      {"sgx.tcs.waits", n(c.tcs_waits), "count"},
      {"sgx.tcs.wait_cycles", n(c.tcs_wait_cycles), "cycles"},
      {"sgx.sealing.checkpoints", n(c.seal_checkpoints), "count"},
      {"sgx.sealing.replicated_blobs", n(c.seal_replicated_blobs), "count"},
      {"sgx.sealing.replicated_bytes", n(c.seal_replicated_bytes), "bytes"},
      {"sgx.sealing.checkpoint_corrupt", n(c.seal_checkpoint_corrupt),
       "count"},
      {"sched.context_switches", n(c.sched_context_switches), "count"},
      {"sched.sleeps", n(c.sched_sleeps), "count"},
      {"sched.wakes", n(c.sched_wakes), "count"},
      {"sched.idle_advanced_cycles", n(c.sched_idle_cycles), "cycles"},
      {"fleet.accepted", n(c.fleet_accepted), "count"},
      {"fleet.completed", n(c.fleet_completed), "count"},
      {"fleet.shed_admission", n(c.fleet_shed_admission), "count"},
      {"fleet.shed_queue", n(c.fleet_shed_queue), "count"},
      {"fleet.shed_recovery", n(c.fleet_shed_recovery), "count"},
      {"fleet.shed_migrating", n(c.fleet_shed_migrating), "count"},
      {"fleet.shed_slo", n(c.fleet_shed_slo), "count"},
      {"fleet.failed", n(c.fleet_failed), "count"},
      {"fleet.retries", n(c.fleet_retries), "count"},
      {"fleet.promotions", n(c.fleet_promotions), "count"},
      {"fleet.recovery_cycles", n(c.fleet_recovery_cycles), "cycles"},
      {"fleet.max_queue_depth", n(c.fleet_max_queue_depth), "count"},
      {"fleet.unsealed_completions", n(c.fleet_unsealed_completions),
       "count"},
      {"fleet.deposits_lost", n(c.fleet_deposits_lost), "count"},
      {"faults.enclave_losses", n(c.faults_enclave_losses), "count"},
      {"faults.transition_failures", n(c.faults_transition_failures),
       "count"},
      {"faults.epc_spikes", n(c.faults_epc_spikes), "count"},
      {"faults.tcs_bursts", n(c.faults_tcs_bursts), "count"},
      {"faults.blob_corruptions", n(c.faults_blob_corruptions), "count"},
      {"faults.skipped_corruptions", n(c.faults_skipped_corruptions),
       "count"},
  };
  for (const char* layer : kLayers) {
    const LayerTime* l = find_layer(p, layer);
    m.push_back({std::string(layer) + "_host_s",
                 l != nullptr ? l->host_s : 0.0, "s"});
    m.push_back({std::string(layer) + "_sim_cycles",
                 l != nullptr ? n(l->sim_cycles) : 0.0, "cycles"});
  }
  m.push_back({"bench.timed_sim_cycles", n(p.timed_cycles), "cycles"});
  m.push_back({"bench.unattributed_cycles", n(p.unattributed_cycles),
               "cycles"});
  m.push_back({"bench.trace.overhead_frac", overhead_frac, "ratio"});
  return m;
}

Pass run_pass(const Options& opt) {
  if (opt.workload == "rmi_lifecycle") return run_rmi_lifecycle(opt);
  if (opt.workload == "fleet_serve") return run_fleet_serve(opt);
  return run_enclave_gc_storm(opt);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else if (key == "--p99-limit-us") {
      opt.p99_limit_us = std::stod(val);
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "option %s has no value\n", argv[argc - 1]);
    return false;
  }
  if (opt.workload != "rmi_lifecycle" && opt.workload != "fleet_serve" &&
      opt.workload != "enclave_gc_storm") {
    std::fprintf(stderr, "unknown --workload '%s'\n", opt.workload.c_str());
    return false;
  }
  return opt.seconds > 0 && opt.p99_limit_us > 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Runs passes until `budget_s` of host time has gone (at least `min`).
// Only the first pass keeps its latency samples, and only the fastest
// traced pass its spans: what later passes simulated is compared through
// their digest, so memory does not grow with the run's length.
void run_passes(const Options& opt, double budget_s, std::size_t min,
                std::vector<Pass>& out) {
  const std::int64_t begin = Recorder::host_ns();
  while (out.size() < min ||
         static_cast<double>(Recorder::host_ns() - begin) * 1e-9 < budget_s) {
    Pass p = run_pass(opt);
    p.digest = sim_digest(p);
    p.rss_mb = peak_rss_mb();
    std::fprintf(stderr, "pass %zu%s: setup %.3f s, timed %.3f s\n",
                 out.size() + 1, opt.trace ? " (traced)" : "", p.setup_s,
                 p.timed_host_s);
    if (!out.empty()) std::vector<Cycles>().swap(p.latency_cycles);
    for (Pass& q : out) {
      if (q.timed_host_s > p.timed_host_s) {
        std::vector<Span>().swap(q.spans);
      } else {
        std::vector<Span>().swap(p.spans);
      }
    }
    out.push_back(std::move(p));
  }
}

int run(const Options& opt) {
  std::vector<Pass> untraced, traced;
  Options plain = opt;
  plain.trace = false;
  const std::size_t n = host_passes(opt);
  if (opt.trace) {
    run_passes(plain, opt.seconds / 2, n, untraced);
    run_passes(opt, opt.seconds / 2, n, traced);
  } else {
    run_passes(plain, opt.seconds, n, untraced);
  }

  // Determinism: every pass of one seed, traced or not, must agree on
  // everything simulated. Output checks and the cycle accounting are
  // checked on every pass too.
  const Pass& first = untraced.front();
  const std::uint64_t digest = first.digest;
  std::vector<std::string> failures = first.check_failures;
  std::uint64_t checks_failed = 0;
  for (const std::vector<Pass>* set : {&untraced, &traced}) {
    for (const Pass& p : *set) {
      checks_failed = std::max(checks_failed, p.checks_failed);
      Cycles attributed = 0;
      for (const LayerTime& l : p.layers) attributed += l.sim_cycles;
      if (attributed + p.unattributed_cycles != p.timed_cycles) {
        failures.push_back("cycle accounting does not close");
        ++checks_failed;
      }
      if (p.digest != digest) {
        failures.push_back("sim_digest differs between passes of one seed");
        ++checks_failed;
      }
    }
  }
  for (const std::string& note : first.notes) std::printf("%s\n", note.c_str());

  const Latency lat = latency_of(first);
  const std::uint64_t failed = first.failed + checks_failed;
  std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced passes\n",
              opt.workload.c_str(), opt.seed, untraced.size(), traced.size());
  std::printf("sim_digest %016" PRIx64 "\n", digest);
  std::printf("latency samples %zu; tail = p%g with %" PRIu64
              " samples beyond it\n",
              first.latency_cycles.size(), lat.tail.percentile,
              lat.tail.beyond);
  std::printf("cycle accounting: %" PRIu64 " attributed + %" PRIu64
              " unattributed = %" PRIu64 " timed\n",
              first.timed_cycles - first.unattributed_cycles,
              first.unattributed_cycles, first.timed_cycles);
  std::printf("fail_frac %.6g (%" PRIu64 " failed, shed or short + %" PRIu64
              " failed checks, of %" PRIu64 ")\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(first.attempted)),
              first.failed, checks_failed, first.attempted);
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    const Pass& best = fastest(traced);
    const double overhead =
        fastest_host_s(traced, n) / fastest_host_s(untraced, n) - 1.0;
    metrics = per_layer(best, overhead);
    std::filesystem::create_directories(opt.out_dir);
    const std::string path = opt.out_dir + "/spans_" + opt.workload + "_" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream(path) << spans_json(best.spans, best.span_names);
    std::printf("spans of the fastest traced pass written to %s (%zu spans)\n",
                path.c_str(), best.spans.size());
  } else {
    metrics = end_to_end(untraced, n);
  }
  for (const Metric& m : metrics) {
    const bool host = m.name.rfind("host", 0) == 0 || m.name == "setup_s" ||
                      m.name == "peak_rss_mb" ||
                      m.name.find("_host_s") != std::string::npos ||
                      m.name == "bench.trace.overhead_frac";
    std::printf("metric %-36s %-14s %-6s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str(),
                host ? "host" : "sim");
  }
  const bool correct = checks_failed == 0;
  std::printf("%s\n",
              result_json(correct, first.attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace msvbench

int main(int argc, char** argv) {
  msvbench::Options opt;
  try {
    if (!msvbench::parse_args(argc, argv, opt)) return 2;
    return msvbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msvbench: %s\n", e.what());
    return 3;
  }
}
