// Multi-tenant enclave request server (serving layer, DESIGN.md §8).
//
// One measured enclave with one trusted isolate per tenant, served by the
// ServingCore (serving_core.h) that every fleet shard runs too: a single
// enclave server is a one-shard fleet with no standby. This façade gives
// the core one worker lane per tenant, eager restore and per-tenant
// stats, and adds what only the server has:
//   * per-isolate GC on the §5.5 helper-thread model: the collection is
//     measured with the clock detached and realized as a pause gate on
//     that tenant only, so other tenants keep serving (§2.2);
//   * switchless relay transitions through the bridge's worker rings;
//   * the fault injector's sealed-blob corrupter.
// Workers contend for the enclave's TCS pool through the bridge, so
// too few slots show up in BridgeStats::tcs_wait_cycles.
//
// Destruction order: the scheduler must outlive the server (declare the
// app, then the scheduler, then the server — C++ destroys in reverse, so
// the server's cooperative stop() runs while the scheduler is still
// alive, and the scheduler's cancel_all() runs before the bridge dies).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/multi_app.h"
#include "sched/scheduler.h"
#include "server/serving_core.h"
#include "server/tenant_state.h"

namespace msv::faults {
class FaultInjector;
}

namespace msv::server {

struct ServerConfig {
  // Per-tenant admission queue bound; submissions beyond it shed or block.
  std::size_t max_queue_depth = 64;
  bool shed_on_full = true;  // false: submitter task blocks for queue space
  std::uint32_t workers_per_tenant = 1;
  std::int32_t initial_balance = 0;
  // Serve relay transitions through the bridge's switchless worker rings.
  bool switchless = false;
  sgx::SwitchlessConfig ecall_ring;
  sgx::SwitchlessConfig ocall_ring;
  // Cross-boundary call coalescing (DESIGN.md §13): a worker waking to a
  // backlog drains up to this many queued requests in one swing and packs
  // them into a single "ecall_multi_rmi_batch" transition, paying the
  // 13,100-cycle ecall and the isolate attach once for the batch. 1 (the
  // default) disables coalescing; the single-request path is untouched.
  std::uint32_t coalesce_max = 1;
  RecoveryConfig recovery;
};

struct TenantStats : ServeCounters {
  std::uint64_t gc_runs = 0;
  Cycles gc_pause_cycles = 0;  // detached collection cost, realized
};

struct ServerStats : ServeCounters {};  // summed over tenants

class RequestServer {
 public:
  RequestServer(sched::Scheduler& sched, core::MultiIsolateApp& app,
                ServerConfig config);
  ~RequestServer();

  RequestServer(const RequestServer&) = delete;
  RequestServer& operator=(const RequestServer&) = delete;

  // Attaches the scheduler to the bridge, constructs one session object
  // ("Account") per tenant isolate and spawns the worker daemons. Must be
  // called from outside tasks.
  void start();
  // Cooperative drain: workers finish queued requests, then retire. Must
  // be called from outside tasks; idempotent. The destructor calls it.
  void stop();

  // Fire-and-forget admission. Returns false when the tenant queue is
  // full and the server sheds; with shed_on_full=false a task blocks for
  // space (callers outside tasks cannot block and fault instead).
  bool submit(std::uint32_t tenant, Request r) {
    return core_.submit(core_.slot(tenant), r);
  }

  // Closed-loop admission: blocks for queue space (never sheds), waits
  // for completion and returns the operation result. Task-only.
  std::int64_t submit_and_wait(std::uint32_t tenant, Request r) {
    return core_.submit_and_wait(core_.slot(tenant), r);
  }

  // Spawns a task that collects tenant `t`'s isolate on the GC helper
  // thread model: cost measured detached, realized as a pause gate on
  // this tenant only.
  void collect_tenant_async(std::uint32_t tenant);

  // Registers the server as the injector's sealed-blob corruption target
  // (a corruption event flips one bit of one tenant's stored checkpoint).
  // Attach the injector to the bridge separately. Call before start().
  void attach_fault_injector(faults::FaultInjector& injector);

  // Enclave restarts performed by the recovery path.
  std::uint64_t restarts() const { return core_.restarts(); }

  std::uint32_t tenant_count() const {
    return static_cast<std::uint32_t>(tenants_.size());
  }
  // Queued + in-flight requests across all tenants (0 = fully drained).
  std::size_t pending() const { return core_.pending(); }

  const TenantStats& tenant_stats(std::uint32_t t) const {
    return tenant(t).stats;
  }
  ServerStats stats() const;  // aggregated over tenants
  // Completed-request latencies (cycles from Request::arrival), in
  // completion order.
  const std::vector<Cycles>& latencies(std::uint32_t t) const {
    return tenant(t).ledger.latencies;
  }
  // Completion instants, parallel to latencies().
  const std::vector<Cycles>& completion_times(std::uint32_t t) const {
    return tenant(t).ledger.completion_times;
  }
  // [start, end) of every realized GC pause of tenant `t`.
  const std::vector<std::pair<Cycles, Cycles>>& gc_windows(
      std::uint32_t t) const {
    return tenant(t).gc_windows;
  }
  // Tenant `t`'s session and sealed checkpoint, as untrusted storage
  // holds it.
  const TenantState& tenant_state(std::uint32_t t) const {
    return core_.slot(t).state;
  }

  core::MultiIsolateApp& app() { return app_; }
  sched::Scheduler& scheduler() { return sched_; }

 private:
  // What the server books per tenant; the core records into `ledger`.
  struct Tenant {
    TenantStats stats;
    ServingCore::Ledger ledger;
    std::vector<std::pair<Cycles, Cycles>> gc_windows;
  };

  const Tenant& tenant(std::uint32_t t) const;

  Env& env_;
  sched::Scheduler& sched_;
  core::MultiIsolateApp& app_;
  ServerConfig config_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  ServingCore core_;
};

}  // namespace msv::server
