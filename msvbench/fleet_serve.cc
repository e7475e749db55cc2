// fleet_serve: one open-loop Zipfian arrival process over a 4-shard fleet
// of 64 bank tenants, with coalescing, warm-standby replication, sealed
// checkpoints after every request and a 50/50 read/deposit mix.
//
// The timed phase runs a reference rate that carries a short seeded plan
// of targeted shard losses (promotion serves them), then a fixed ladder of
// fault-free offered rates from well under to past capacity, refined by
// bisection between the last passing and the first failing rung. Latency
// is measured from each request's intended arrival instant.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "apps/illustrative/bank.h"
#include "faults/plan.h"
#include "fleet/load.h"
#include "fleet/router.h"
#include "sched/scheduler.h"
#include "support/rng.h"
#include "workloads.h"

namespace msvbench {
namespace {

using msv::Cycles;
using msv::Env;
using msv::Rng;

constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kTenants = 64;
constexpr double kZipfS = 1.1;
constexpr std::int32_t kInitialBalance = 1'000;
constexpr std::int32_t kMaxDeposit = 9;
constexpr double kReferenceRate = 2'000;  // about 40% of capacity
// 99'000 samples put the reported tail at p99.9 with 99 beyond it; fewer
// leave it to a handful of queueing bursts and it swings by 10% from seed
// to seed.
constexpr std::uint64_t kReferenceRequests = 99'000;
// Host-time segments of the reference run (see Recorder::segment_host_s):
// each about as long as a ladder rung, so a burst of interference costs
// one segment of one pass rather than the whole run.
constexpr std::uint64_t kReferenceSegments = 12;
constexpr std::uint32_t kReferenceLosses = 8;  // two per shard
constexpr double kLadder[] = {1'000, 2'000, 3'000, 4'000, 6'000, 8'000};
constexpr std::uint64_t kRungRequests = 8'000;
constexpr int kBisections = 6;
constexpr std::size_t kPendingSamples = 16;
constexpr Cycles kDrainQuantum = 10'000;
// Set-up builds per pass (see fastest_setup_s).
constexpr int kSetups = 15;

void add_app(Counters& c, msv::core::MultiIsolateApp& app) {
  const msv::sgx::BridgeStats& b = app.bridge().stats();
  add(c, b);
  // The fleet's RMI layer keeps no stats struct: its transitions are the
  // bridge's relay and batch calls.
  for (const auto& [name, call] : b.per_call) {
    if (name.find("_relay_") != std::string::npos ||
        name.find("rmi_batch") != std::string::npos) {
      c.rmi_transitions += call.calls;
    }
  }
  add(c, app.enclave().epc().stats());
  add(c, app.enclave().tcs().stats());
  add(c, app.untrusted_context().isolate().heap().stats());
  for (std::uint32_t i = 0; i < app.isolate_count(); ++i) {
    add(c, app.trusted_context(i).isolate().heap().stats());
  }
}

// Absolute counters over every enclave app (active and standby), the
// router, the scheduler and the fault injectors.
Counters snapshot(msv::fleet::FleetRouter& router,
                  msv::sched::Scheduler& sched) {
  Counters c;
  for (std::uint32_t k = 0; k < router.shard_count(); ++k) {
    msv::fleet::Shard& shard = router.shard(k);
    add_app(c, shard.active_app());
    if (msv::core::MultiIsolateApp* standby = shard.standby_app()) {
      add_app(c, *standby);
    }
    if (const msv::faults::FaultInjector* inj = router.injector_for(k)) {
      const msv::faults::FaultInjectorStats& s = inj->stats();
      c.faults_enclave_losses += s.enclave_losses;
      c.faults_transition_failures += s.transition_failures;
      c.faults_epc_spikes += s.epc_spikes;
      c.faults_tcs_bursts += s.tcs_bursts;
      c.faults_blob_corruptions += s.blob_corruptions;
      c.faults_skipped_corruptions += s.skipped_corruptions;
    }
  }
  const msv::fleet::FleetStats f = router.stats();
  c.fleet_accepted = f.accepted;
  c.fleet_completed = f.completed;
  c.fleet_shed_admission = f.shed_admission;
  c.fleet_shed_recovery = f.shed_recovery;
  c.fleet_shed_migrating = f.shed_migrating;
  c.fleet_shed_slo = f.shed_slo;
  c.fleet_shed_queue = f.shed - f.shed_admission - f.shed_recovery -
                       f.shed_migrating - f.shed_slo;
  c.fleet_failed = f.failed;
  c.fleet_retries = f.retries;
  c.fleet_promotions = f.promotions;
  c.fleet_recovery_cycles = f.recovery_cycles;
  c.seal_checkpoints = f.checkpoints;
  c.seal_replicated_blobs = f.replicated_blobs;
  c.seal_replicated_bytes = f.replicated_bytes;
  c.seal_checkpoint_corrupt = f.checkpoint_corrupt;
  const msv::sched::SchedulerStats& s = sched.stats();
  c.sched_context_switches = s.context_switches;
  c.sched_sleeps = s.sleeps;
  c.sched_wakes = s.wakes;
  c.sched_idle_cycles = s.idle_advanced_cycles;
  // Every served request is one logical call into the trusted runtime;
  // every checkpoint seal adds one getBalance call.
  c.rmi_invocations = f.completed + f.failed + f.checkpoints;
  return c;
}

// What one offered rate produced.
struct RateRun {
  Rung rung;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  Cycles duration = 0;
  Cycles max_lateness = 0;
  std::vector<Cycles> latencies;
};

class Fleet {
 public:
  Fleet(const Options& opt, Pass& pass)
      : pass_(pass),
        rng_(opt.seed * 0x9e3779b97f4a7c15ull + 0x666c74),
        model_(msv::apps::build_bank_app()),
        env_(std::make_unique<Env>()),
        sched_(*env_),
        router_(*env_, sched_, model_, config()),
        cdf_(msv::fleet::FleetLoad::zipf_cdf(kTenants, kZipfS)),
        expected_(kTenants, kInitialBalance) {}

  Env& env() { return *env_; }

  static msv::fleet::FleetConfig config() {
    msv::fleet::FleetConfig fc;
    fc.shards = kShards;
    fc.tenants = kTenants;
    fc.shard.workers = 2;
    fc.shard.coalesce_max = 4;
    fc.shard.replication = true;
    fc.shard.initial_balance = kInitialBalance;
    fc.shard.recovery.enabled = true;
    fc.shard.recovery.checkpoint_every = 1;
    return fc;
  }

  // Starts the fleet and builds every tenant's session.
  void setup() {
    router_.start();
    sched_.spawn("bench-warm", [this] {
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        msv::server::Request r;
        r.op = msv::server::RequestOp::kBalance;
        router_.submit_and_wait(t, r);
      }
    });
    sched_.run();
  }

  void arm_recorder(Recorder& rec) {
    rec_ = &rec;
    l_sched_ = rec.layer("sched.run");
    l_submit_ = rec.layer("fleet.submit");
  }

  // Attaches a seeded plan of targeted shard losses over the next
  // `horizon` cycles: the same number of losses on every shard, each at a
  // seeded instant in its own slot of the window, in a seeded shard order.
  // A plan that could strike only the hot shard on one seed and only cold
  // ones on another would swamp the tail with which-shard luck.
  void arm_losses(Cycles horizon) {
    std::vector<std::uint32_t> targets(kReferenceLosses);
    for (std::uint32_t i = 0; i < kReferenceLosses; ++i) targets[i] = i % kShards;
    for (std::uint32_t i = kReferenceLosses - 1; i > 0; --i) {
      std::swap(targets[i], targets[rng_.next_below(i + 1)]);
    }
    const Cycles slot = horizon / kReferenceLosses;
    const Cycles now = env_->clock.now();
    msv::faults::FaultPlan plan;
    for (std::uint32_t i = 0; i < kReferenceLosses; ++i) {
      msv::faults::FaultEvent e;
      e.kind = msv::faults::FaultKind::kEnclaveLoss;
      e.target = targets[i];
      e.at = now + i * slot + rng_.next_below(slot);
      plan.add(e);
    }
    router_.attach_fault_plan(plan);
  }

  // Offers `requests` at `rate_rps` and drains the fleet. The run is
  // `segments` host-time segments of equal request counts.
  RateRun run_rate(double rate_rps, std::uint64_t requests,
                   std::uint64_t segments) {
    RateRun out;
    out.rung.rate_rps = rate_rps;
    const msv::fleet::FleetStats before = router_.stats();
    std::vector<std::size_t> lat_begin;
    for (std::uint32_t k = 0; k < kShards; ++k) {
      lat_begin.push_back(router_.shard(k).latencies().size());
    }
    const double mean_gap = env_->clock.hz() / rate_rps;
    std::vector<std::size_t> pending;
    const Cycles start = env_->clock.now();
    rec_->call(l_sched_, [&] {
      sched_.spawn("bench-gen", [&] {
        Cycles next = env_->clock.now();
        for (std::uint64_t i = 0; i < requests; ++i) {
          if (i % (requests / segments) == 0) rec_->set_request(segment_++);
          const double u = rng_.next_double();
          next += static_cast<Cycles>(-std::log(1.0 - u) * mean_gap);
          if (next > env_->clock.now()) sched_.sleep_until(next);
          out.max_lateness =
              std::max(out.max_lateness, env_->clock.now() - next);
          const auto tenant = static_cast<std::uint32_t>(
              std::lower_bound(cdf_.begin(), cdf_.end(),
                               rng_.next_double()) -
              cdf_.begin());
          msv::server::Request r;
          r.op = rng_.next_bool(0.5) ? msv::server::RequestOp::kBalance
                                     : msv::server::RequestOp::kDeposit;
          r.amount = static_cast<std::int32_t>(rng_.next_in(1, kMaxDeposit));
          r.arrival = next;
          ++out.submitted;
          const bool accepted =
              rec_->call(l_submit_, [&] { return router_.submit(tenant, r); });
          if (accepted && r.op == msv::server::RequestOp::kDeposit) {
            expected_[tenant] += r.amount;
          }
          if (i % (requests / kPendingSamples) == 0) {
            pending.push_back(router_.pending());
          }
        }
      });
      sched_.run();
      sched_.spawn("bench-drain", [&] {
        while (router_.pending() > 0) sched_.sleep_for(kDrainQuantum);
      });
      sched_.run();
    });
    out.duration = env_->clock.now() - start;
    const msv::fleet::FleetStats after = router_.stats();
    out.accepted = after.accepted - before.accepted;
    out.shed = after.shed - before.shed;
    out.failed = after.failed - before.failed;
    out.completed = after.completed - before.completed;
    for (std::uint32_t k = 0; k < kShards; ++k) {
      const std::vector<Cycles>& lat = router_.shard(k).latencies();
      out.latencies.insert(out.latencies.end(),
                           lat.begin() + static_cast<std::ptrdiff_t>(lat_begin[k]),
                           lat.end());
    }
    std::vector<double> us;
    us.reserve(out.latencies.size());
    for (const Cycles c : out.latencies) {
      us.push_back(static_cast<double>(c) * 1e6 / env_->clock.hz());
    }
    std::sort(us.begin(), us.end());
    out.rung.p99_us = quantile(us, 0.99);
    out.rung.shed = out.shed;
    out.rung.backlog_growing = backlog_growing(pending);
    if (out.accepted + out.shed != out.submitted) {
      fail("accepted + shed != submitted at " + std::to_string(rate_rps) +
           " req/s");
    }
    return out;
  }

  // What the balance read-back found.
  struct Balances {
    std::int64_t units_lost = 0;       // deposit units missing fleet-wide
    std::uint64_t tenants_short = 0;   // tenants whose balance is short
  };

  // Reads every tenant's balance back and checks it against the deposits
  // the fleet accepted: each balance must equal the initial balance plus
  // its accepted deposits.
  //
  // The library misses that target: the shard acknowledges a request
  // before sealing its checkpoint, and a seal that an enclave loss
  // interrupts is dropped (fleet/shard.cc, maybe_checkpoint), so promotion
  // restores the previous checkpoint and the deposit is gone. A short
  // tenant therefore counts as a failed operation in the result line (and
  // in fail_frac) rather than failing the run. What would be a new defect
  // fails the run: a balance above its deposits, or a fleet-wide shortfall
  // larger than the completions left unsealed can explain.
  Balances check_balances(std::uint64_t unsealed_completions) {
    std::vector<std::int64_t> got(kTenants, 0);
    sched_.spawn("bench-check", [&] {
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        msv::server::Request r;
        r.op = msv::server::RequestOp::kBalance;
        got[t] = router_.submit_and_wait(t, r);
      }
    });
    sched_.run();
    Balances out;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      if (got[t] > expected_[t]) {
        fail("tenant " + std::to_string(t) + " balance " +
             std::to_string(got[t]) + " exceeds its deposits " +
             std::to_string(expected_[t]));
      }
      if (got[t] < expected_[t]) ++out.tenants_short;
      out.units_lost += expected_[t] - got[t];
    }
    if (out.units_lost >
        static_cast<std::int64_t>(unsealed_completions) * kMaxDeposit) {
      fail(std::to_string(out.units_lost) +
           " deposit units lost, more than the " +
           std::to_string(unsealed_completions) +
           " unsealed completions can explain");
    }
    return out;
  }

  void stop() { router_.stop(); }

  msv::fleet::FleetRouter& router() { return router_; }
  msv::sched::Scheduler& sched() { return sched_; }

 private:
  void fail(const std::string& what) { pass_.fail_check(what); }

  Pass& pass_;
  Rng rng_;
  msv::model::AppModel model_;
  std::unique_ptr<Env> env_;
  msv::sched::Scheduler sched_;
  msv::fleet::FleetRouter router_;
  std::vector<double> cdf_;
  std::vector<std::int64_t> expected_;
  Recorder* rec_ = nullptr;
  std::uint64_t segment_ = 0;
  std::uint32_t l_sched_ = 0;
  std::uint32_t l_submit_ = 0;
};

}  // namespace

Pass run_fleet_serve(const Options& opt) {
  Pass pass;
  std::unique_ptr<Fleet> built;
  pass.setup_s = fastest_setup_s(kSetups, built, [&] {
    auto f = std::make_unique<Fleet>(opt, pass);
    f->setup();
    return f;
  });
  Fleet& fleet = *built;
  Env& env = fleet.env();
  pass.cpu_hz = env.clock.hz();

  Recorder rec(env.clock, opt.trace);
  fleet.arm_recorder(rec);
  const Counters before = snapshot(fleet.router(), fleet.sched());

  rec.begin_timed();
  // Reference rate, with the loss plan spread over its arrival window.
  fleet.arm_losses(static_cast<Cycles>(
      static_cast<double>(kReferenceRequests) * env.clock.hz() /
      kReferenceRate));
  const RateRun ref =
      fleet.run_rate(kReferenceRate, kReferenceRequests, kReferenceSegments);
  // The fault-free ladder, then bisection between its boundary rungs.
  std::vector<Rung> rungs;
  std::vector<RateRun> runs;
  for (const double rate : kLadder) {
    runs.push_back(fleet.run_rate(rate, kRungRequests, 1));
    rungs.push_back(runs.back().rung);
  }
  double lo = max_passing_rate(rungs, opt.p99_limit_us);
  double hi = 0;
  for (const Rung& r : rungs) {
    if (r.rate_rps > lo && (hi == 0 || r.rate_rps < hi)) hi = r.rate_rps;
  }
  for (int i = 0; i < kBisections && lo > 0 && hi > 0; ++i) {
    const double mid = 0.5 * (lo + hi);
    runs.push_back(fleet.run_rate(mid, kRungRequests, 1));
    rungs.push_back(runs.back().rung);
    if (rung_ok(runs.back().rung, opt.p99_limit_us)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  rec.end_timed();
  absorb(pass, rec, env.clock.now());
  pass.max_rate_rps = max_passing_rate(rungs, opt.p99_limit_us);

  Counters& c = pass.counters;
  c = snapshot(fleet.router(), fleet.sched()) - before;
  for (std::uint32_t k = 0; k < fleet.router().shard_count(); ++k) {
    c.fleet_max_queue_depth = std::max<std::uint64_t>(
        c.fleet_max_queue_depth, fleet.router().shard(k).stats().max_queue_depth);
  }
  c.fleet_unsealed_completions = c.fleet_completed > c.seal_checkpoints
                                     ? c.fleet_completed - c.seal_checkpoints
                                     : 0;
  const Fleet::Balances balances =
      fleet.check_balances(c.fleet_unsealed_completions);
  c.fleet_deposits_lost =
      balances.units_lost > 0 ? static_cast<std::uint64_t>(balances.units_lost)
                              : 0;

  // The reference rate is the served workload; the ladder probes capacity.
  pass.latency_cycles = ref.latencies;
  pass.ops = ref.completed;
  std::uint64_t submitted = ref.submitted;
  std::uint64_t failed = ref.failed + ref.shed;
  std::string ladder = "fleet_serve ladder (rate req/s: p99 us, shed):";
  const RateRun* top = &runs.front();
  for (const RateRun& r : runs) {
    pass.ops += r.completed;
    submitted += r.submitted;
    failed += r.failed;
    if (r.rung.rate_rps > top->rung.rate_rps) top = &r;
    ladder += " " + std::to_string(static_cast<long long>(r.rung.rate_rps)) +
              ": " + std::to_string(static_cast<long long>(r.rung.p99_us)) +
              ", " + std::to_string(r.shed) +
              (r.rung.backlog_growing ? " growing;" : ";");
  }
  pass.attempted = submitted;
  pass.failed += failed + balances.tenants_short;
  // Saturation throughput: completions per simulated second at the top rung.
  pass.sim_ops_per_s = static_cast<double>(top->completed) * env.clock.hz() /
                       static_cast<double>(top->duration);

  pass.notes.push_back(ladder);
  pass.notes.push_back(
      "fleet_serve durability: " + std::to_string(balances.tenants_short) +
      " tenants short of initial + accepted deposits (counted as failed), " +
      std::to_string(balances.units_lost) + " deposit units lost; " +
      std::to_string(c.fleet_unsealed_completions) +
      " completed requests were never sealed");
  pass.notes.push_back(
      "fleet_serve: reference " +
      std::to_string(static_cast<long long>(kReferenceRate)) + " req/s x " +
      std::to_string(kReferenceRequests) + " with " +
      std::to_string(kReferenceLosses) + " targeted losses; max generator " +
      "lateness " +
      std::to_string(static_cast<double>(ref.max_lateness) * 1e6 /
                     env.clock.hz()) +
      " us");
  fleet.stop();
  return pass;
}

}  // namespace msvbench
