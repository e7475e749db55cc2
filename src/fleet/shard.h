// One fleet shard: an active enclave, an optional warm standby, and the
// serving core that serves the tenants the ring assigns here (DESIGN.md
// §14).
//
// Both MultiIsolateApps live on the fleet's shared Env. The active one
// holds every resident tenant's session. With replication on, the standby
// idles warm (its ECREATE/EADD/EINIT bill was paid at fleet start) while
// the replication stream copies every sealed checkpoint to its side, so
// enclave loss becomes a promotion: fence the demoted runtime's proxies
// (no double execution), flip the authority, and let sessions rebuild
// lazily from the replicas. The lost enclave is re-measured on a detached
// core to become the next standby. Without a ready standby the shard
// restarts the enclave inline — the 3x+ p99 gap fig_fleet measures.
// Cross-enclave unsealing is legal: both enclaves run the same measured
// image, so the MRENCLAVE sealing key is the same.
//
// Sessions are restored lazily, one tenant per first post-recovery touch:
// the recovery window itself stays O(1) and each restore is billed to the
// request that needs that tenant, which is both honest latency accounting
// and what keeps promotion cheap at 16+ residents.
//
// The serving loop is the server::ServingCore the request server runs
// too, with one shared worker lane and lazy restore. The shard keeps only
// tenant residency, the migration fence, the standby and promotion.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/multi_app.h"
#include "sched/scheduler.h"
#include "server/serving_core.h"

namespace msv::faults {
class FaultInjector;
}

namespace msv::fleet {

struct ShardConfig {
  // Isolate slots per enclave = maximum resident tenants of this shard.
  std::uint32_t slots = 8;
  std::uint32_t workers = 1;
  std::size_t max_queue_depth = 64;  // per resident tenant
  // Coalescing width (DESIGN.md §13); 1 disables batching.
  std::uint32_t coalesce_max = 1;
  // Keep a warm standby enclave fed by the checkpoint replication stream.
  bool replication = false;
  std::int32_t initial_balance = 0;
  // Retry ladder + checkpoint cadence, shared with the single-enclave
  // server so the restart-and-restore fallback is cycle-comparable.
  server::RecoveryConfig recovery;
};

struct ShardStats : server::ServeCounters {
  std::uint64_t promotions = 0;        // replica promotions (warm path)
  std::uint64_t restarts = 0;          // inline restart-and-restore (cold path)
  std::uint64_t standby_rebuilds = 0;  // background re-measures completed
  Cycles recovery_cycles = 0;          // total serving-stall across recoveries
  Cycles last_recovery_cycles = 0;
  // Health timeline (DESIGN.md §16): the instant the bench gate compares
  // ("the SLO monitor must flag the shard degraded no later than the
  // ladder fires").
  Cycles first_recovery_started_cycles = 0;  // first ladder activation
};

class Shard {
 public:
  Shard(Env& env, sched::Scheduler& sched, const model::AppModel& app_model,
        std::uint32_t shard_id, ShardConfig config,
        core::AppConfig app_config);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Spawns the worker daemons. Must be called outside tasks; idempotent.
  void start();
  // Cooperative stop: flags workers to retire once their queues drain and
  // wakes them. The router runs the scheduler afterwards.
  void begin_stop() { core_.begin_stop(); }

  std::uint32_t shard_id() const { return shard_id_; }

  // ---- Tenant residency ----
  // Binds a tenant to a free isolate slot; the session itself is built
  // lazily on first touch (fresh, or from the adopted checkpoint).
  void bind_tenant(std::uint32_t tenant);
  // bind_tenant + seed the tenant's sealed checkpoint (migration arrival).
  void adopt_checkpoint(std::uint32_t tenant, std::vector<std::uint8_t> blob);
  // Force-seals the tenant's current state and returns the blob
  // (migration departure). Task-side; the tenant should be quiesced.
  std::vector<std::uint8_t> seal_tenant(std::uint32_t tenant);
  // Ends residency. The tenant must be fully drained.
  void unbind_tenant(std::uint32_t tenant);
  bool hosts(std::uint32_t tenant) const { return slot_of_.count(tenant); }
  std::vector<std::uint32_t> resident_tenants() const;  // sorted
  std::uint32_t resident_count() const {
    return static_cast<std::uint32_t>(slot_of_.size());
  }

  // ---- Serving ----
  // Fire-and-forget; sheds on a full queue, mid-recovery, or while the
  // tenant is quiesced for migration.
  bool submit(std::uint32_t tenant, server::Request r) {
    return core_.submit(slot_for(tenant), r);
  }
  // Closed-loop: blocks for queue space, waits for the result. Task-only.
  std::int64_t submit_and_wait(std::uint32_t tenant, server::Request r) {
    return core_.submit_and_wait(slot_for(tenant), r);
  }
  std::size_t pending() const { return core_.pending(); }

  // Task-side migration fence: closes admission for `tenant` and waits
  // until its queue and in-flight work drain. A worker mid-batch finishes
  // the whole coalesced swing first — the §13 fence the migration drains
  // behind.
  void quiesce_tenant(std::uint32_t tenant);

  // ---- Failover ----
  bool standby_ready() const { return standby_ready_; }
  // Planned promotion (tests / operator-driven failover): requires a ready
  // standby and no recovery in flight.
  void promote_standby();
  // Authority epoch: bumped once per promotion. Proxies of earlier epochs
  // were fenced and fault with StaleProxyError.
  std::uint64_t authority_epoch() const { return authority_epoch_; }

  core::MultiIsolateApp& active_app() { return *apps_[active_]; }
  const core::MultiIsolateApp& active_app() const { return *apps_[active_]; }
  // Null when replication is off.
  core::MultiIsolateApp* standby_app() { return apps_[active_ ^ 1].get(); }

  // Fault wiring: the injector is attached to the *active* bridge and
  // follows the authority across promotions (retarget + re-attach).
  void attach_injector(faults::FaultInjector* injector);

  // SLO wiring (DESIGN.md §16), keyed by shard id; see
  // ServingCore::attach_slo.
  void attach_slo(telemetry::SloMonitor* slo) {
    core_.attach_slo(slo, shard_id_);
  }

  const ShardStats& stats() const { return stats_; }
  // Completed-request latencies, shard-wide, in completion order.
  const std::vector<Cycles>& latencies() const { return ledger_.latencies; }
  void set_latency_histogram(telemetry::Histogram* hist) {
    ledger_.latency_hist = hist;
  }

 private:
  server::ServingCore::Slot& slot_for(std::uint32_t tenant);
  // Binds `slot` to `tenant` (or Slot::kFree) with fresh state.
  void assign(server::ServingCore::Slot& slot, std::uint32_t tenant);
  // The lazy-restore barrier's recovery: promotion when a standby is
  // warm, inline restart otherwise.
  void fail_over();
  void promote_standby_locked();

  Env& env_;
  sched::Scheduler& sched_;
  std::uint32_t shard_id_;
  ShardConfig config_;
  // [0] primary at start; [1] standby (null with replication off).
  std::unique_ptr<core::MultiIsolateApp> apps_[2];
  std::uint32_t active_ = 0;
  std::uint64_t authority_epoch_ = 1;
  bool standby_ready_ = false;
  ShardStats stats_;
  server::ServingCore::Ledger ledger_;
  // The standby's copy of each slot's latest sealed checkpoint — what the
  // replication stream has delivered so far. Promotion restores from
  // these, the bytes the new authority actually holds.
  std::vector<std::vector<std::uint8_t>> replicas_;
  server::ServingCore core_;
  std::map<std::uint32_t, std::uint32_t> slot_of_;  // tenant -> slot index
  faults::FaultInjector* injector_ = nullptr;
};

}  // namespace msv::fleet
