// The serving core (DESIGN.md §8 item 7): the one implementation of the
// enclave serving loop behind the request server (server.h) and every
// fleet shard (fleet/shard.h). A single enclave server is a one-shard
// fleet with no standby.
//
// A core serves one MultiIsolateApp, one trusted isolate per *slot*, and
// owns admission (bounded per-slot queues that shed or block), the worker
// lanes with §13 coalescing, the §12 retry ladder, the recovery barrier,
// session restore and the sealed checkpoint cadence. Where its two users
// differ in the model, the difference is data the façade passes in
// `Shape`, or state that stays inert for the other user (the GC pause
// gate, the migration fence, the SLO hooks, the replica buffers). The only
// policy branch is eager vs lazy restore.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/multi_app.h"
#include "sched/scheduler.h"
#include "server/tenant_state.h"
#include "sgx/sealing.h"

namespace msv::telemetry {
class SloMonitor;  // telemetry/slo.h
}

namespace msv::server {

// A request that ran out of retry budget: either max_attempts faults in a
// row, or the next backoff would blow the request's deadline.
class RetriesExhaustedError : public RuntimeFault {
 public:
  explicit RetriesExhaustedError(const std::string& what)
      : RuntimeFault(what) {}
};

enum class RequestOp : std::uint8_t {
  kDeposit,  // Account.updateBalance(amount)
  kBalance,  // Account.getBalance()
};

struct Request {
  RequestOp op = RequestOp::kDeposit;
  std::int32_t amount = 1;
  // Intended arrival instant (absolute simulated cycles). Latency is
  // measured from here, which keeps open-loop results honest under
  // coordinated omission: a request delayed behind a backlog accrues the
  // full delay since it *should* have arrived. 0 = stamp at submission.
  Cycles arrival = 0;
};

// Fault-recovery policy (DESIGN.md §12). Disabled by default: a server
// without recovery behaves — cycle for cycle — like the pre-fault server,
// and a fault surfaces as the request's error.
struct RecoveryConfig {
  bool enabled = false;
  // Per-request retry budget: a request is retried after a recoverable
  // fault (enclave loss, stale proxy, transient transition failure) at
  // most `max_attempts - 1` times...
  std::uint32_t max_attempts = 4;
  // ...under truncated exponential backoff...
  Cycles initial_backoff_cycles = 200'000;
  double backoff_multiplier = 2.0;
  Cycles max_backoff_cycles = 3'200'000;
  // ...and never past this deadline after the request's arrival instant
  // (a retry that cannot finish in time is not worth the enclave's
  // cycles; the request fails with RetriesExhaustedError instead).
  Cycles request_deadline_cycles = 400'000'000;
  // Seal a per-tenant state checkpoint every N completed requests
  // (0 = never). Restarted enclaves restore from the latest checkpoint;
  // deposits since then are lost — the crash-consistency window the
  // fig_faults bench measures.
  std::uint32_t checkpoint_every = 0;
  // Platform fuse-key stand-in for the sealing KDF.
  std::string platform_secret = "msv-sim-fuse-key";
};

// What the core counts: per tenant in the request server (TenantStats),
// per shard in the fleet (ShardStats).
struct ServeCounters {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_recovery = 0;   // of shed: admission closed mid-recovery
  std::uint64_t shed_migrating = 0;  // of shed: tenant quiesced for migration
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;   // finished with an error (retries exhausted
                              // or recovery disabled); no latency recorded
  std::uint64_t retries = 0;  // recoverable faults absorbed by re-attempts
  std::uint64_t restored = 0;            // checkpoint unseals that succeeded
  std::uint64_t checkpoints = 0;         // checkpoints sealed
  std::uint64_t checkpoint_corrupt = 0;  // unseals rejected (tampered blob)
  std::uint64_t replicated_blobs = 0;    // checkpoints streamed to a standby
  std::uint64_t replicated_bytes = 0;
  Cycles gc_gate_wait_cycles = 0;  // worker time spent waiting out a pause
  std::size_t max_queue_depth = 0;

  // Sums the counters (max for the queue depth).
  ServeCounters& operator+=(const ServeCounters& o);
};

class ServingCore {
 public:
  enum class Restore : std::uint8_t {
    kEager,  // the barrier restores every stale session (request server)
    kLazy,   // each session rebuilds on first touch (fleet shard)
  };

  // Everything the façade decides, fixed at construction.
  struct Shape {
    Restore restore = Restore::kEager;
    std::uint32_t slots = 1;
    // Lane l runs `workers_per_lane` fibers named "<lanes[l]>-w<w>"; slot
    // s queues on lane s % lanes. One lane per slot gives per-tenant
    // workers, one lane for all slots a shared FIFO of slot tokens.
    std::vector<std::string> lanes;
    std::uint32_t workers_per_lane = 1;
    std::size_t max_queue_depth = 64;  // per slot
    bool shed_on_full = true;  // false: the submitter task blocks for space
    std::uint32_t coalesce_max = 1;  // §13 batch width; 1 disables batching
    std::int32_t initial_balance = 0;
    RecoveryConfig recovery;
    // The request-lifetime span (admission -> completion).
    telemetry::Category request_category = telemetry::Category::kServer;
    std::uint32_t request_name = 0;
    std::string retry_where;  // names the server in retry errors
    // kLazy: what the barrier runs on a lost enclave.
    std::function<void()> fail_over;
  };

  // Where a slot's outcomes are booked; the façade owns it.
  struct Ledger {
    ServeCounters* stats = nullptr;
    std::vector<Cycles> latencies;  // from Request::arrival, completion order
    bool keep_completion_times = false;
    std::vector<Cycles> completion_times;  // parallel to latencies, if kept
    telemetry::Histogram* latency_hist = nullptr;
  };

  struct Pending;

  struct Slot {
    explicit Slot(sched::Scheduler& s) : space(s), drained(s), gc_done(s) {}
    static constexpr std::uint32_t kFree = 0xffffffffu;
    std::uint32_t index = 0;  // isolate index inside the enclave
    std::uint32_t tenant = kFree;
    TenantState state;
    Ledger* ledger = nullptr;
    // The standby's copy of the latest sealed checkpoint: every seal
    // streams the blob here. Null without replication.
    std::vector<std::uint8_t>* replica = nullptr;
    std::deque<Pending*> queue;
    sched::WaitQueue space;    // submitters park here when the queue is full
    sched::WaitQueue drained;  // the migration fence parks here
    sched::WaitQueue gc_done;  // workers park here during a GC pause
    std::size_t in_flight = 0;
    bool quiescing = false;  // admission closed for a migration
    bool gc_active = false;  // the isolate's heap is being collected
  };

  ServingCore(sched::Scheduler& sched, core::MultiIsolateApp& app,
              Shape shape);
  ~ServingCore();

  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  Slot& slot(std::uint32_t index);
  const Slot& slot(std::uint32_t index) const;

  // The enclave requests are served on; a promotion repoints it.
  void set_app(core::MultiIsolateApp& app) { app_ = &app; }

  // SLO wiring (DESIGN.md §16): sheds, failures, caught recoverable faults
  // (at the catch site, before the ladder runs) and latencies feed `slo`
  // under `key`. nullptr detaches; each record site is one pointer test.
  void attach_slo(telemetry::SloMonitor* slo, std::uint32_t key) {
    slo_ = slo;
    slo_key_ = key;
  }
  telemetry::SloMonitor* slo() const { return slo_; }

  // Builds every session (eager restore) and spawns the workers.
  void start();
  bool started() const { return started_; }
  // Workers retire once their queues drain; the caller runs the
  // scheduler. end_stop() re-arms the core for another start().
  void begin_stop();
  void end_stop();

  bool submit(Slot& slot, Request r);
  // Closed-loop: blocks for queue space (never sheds), waits for the
  // result. Task-only.
  std::int64_t submit_and_wait(Slot& slot, Request r);
  // Queued + in flight, all slots (the router's admission cap reads it
  // on every submission, so it is a running count).
  std::size_t pending() const { return pending_; }

  bool recovering() const { return recovering_; }
  // Restarts the lost enclave in place; every session goes stale.
  void restart_enclave();
  std::uint64_t restarts() const { return restarts_; }
  void invalidate_sessions() { ++generation_; }
  // Rebuilds the slot's session if it predates the last invalidation.
  void ensure_session(Slot& slot);
  // Seals the slot's balance as its next checkpoint and streams it to the
  // replica. Throws whatever the balance read throws.
  const std::vector<std::uint8_t>& seal(Slot& slot);

 private:
  struct Lane {
    explicit Lane(sched::Scheduler& s) : ready(s) {}
    std::deque<std::uint32_t> work;  // one slot token per enqueue
    sched::WaitQueue ready;          // idle workers park here
  };

  bool queue_full(const Slot& slot) const {
    return slot.queue.size() >= shape_.max_queue_depth;
  }
  bool shed(Slot& slot, std::uint64_t ServeCounters::*cause);
  void enqueue(Slot& slot, Pending* p);
  Pending* take(Slot& slot);
  void worker_loop(Lane& lane);
  void wait_out_gc(Slot& slot);
  void serve(Slot& slot, Pending* p);
  void finish_request(Slot& slot, Pending* p);
  void execute_batch(Slot& slot, std::vector<Pending*>& batch);
  std::int64_t execute_with_retry(Slot& slot, Pending& p);
  void ensure_recovered();
  bool stale(const Slot& slot) const {
    return slot.tenant != Slot::kFree &&
           slot.state.session_generation != generation_;
  }
  void restore_session(Slot& slot, std::uint64_t generation);
  void maybe_checkpoint(Slot& slot);
  // Classifies the exception in flight: true for a recoverable fault
  // (booked at the catch site), false for anything else.
  bool absorb_fault(Slot& slot);

  Env& env_;
  sched::Scheduler& sched_;
  core::MultiIsolateApp* app_;
  Shape shape_;
  sgx::SealingPlatform sealer_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  sched::WaitQueue recovery_done_;
  telemetry::SloMonitor* slo_ = nullptr;
  std::uint32_t slo_key_ = 0;
  // Bumped whenever every session becomes invalid (restart, promotion).
  std::uint64_t generation_ = 1;
  std::uint64_t restarts_ = 0;
  std::size_t pending_ = 0;
  bool recovering_ = false;
  bool started_ = false;
  bool stopping_ = false;
};

}  // namespace msv::server
