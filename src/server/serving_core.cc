#include "server/serving_core.h"

#include <algorithm>
#include <utility>

#include "support/error.h"
#include "telemetry/slo.h"

namespace msv::server {

namespace {

// The session method a request runs, its arguments and its result.
const char* method_of(const Request& r) {
  return r.op == RequestOp::kDeposit ? "updateBalance" : "getBalance";
}

std::vector<rt::Value> args_of(const Request& r) {
  if (r.op == RequestOp::kDeposit) return {rt::Value(r.amount)};
  return {};
}

std::int64_t result_of(const rt::Value& v) {
  return v.type() == rt::ValueType::kI32 ? v.as_i32() : 0;
}

}  // namespace

ServeCounters& ServeCounters::operator+=(const ServeCounters& o) {
  accepted += o.accepted;
  shed += o.shed;
  shed_recovery += o.shed_recovery;
  shed_migrating += o.shed_migrating;
  completed += o.completed;
  failed += o.failed;
  retries += o.retries;
  restored += o.restored;
  checkpoints += o.checkpoints;
  checkpoint_corrupt += o.checkpoint_corrupt;
  replicated_blobs += o.replicated_blobs;
  replicated_bytes += o.replicated_bytes;
  gc_gate_wait_cycles += o.gc_gate_wait_cycles;
  max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
  return *this;
}

// One queued request. Fire-and-forget descriptors are heap-owned and freed
// by the worker; submit_and_wait descriptors live on the waiting task's
// fiber stack.
struct ServingCore::Pending {
  Request req;
  bool owned = false;
  bool done = false;
  sched::TaskId waiter = sched::kNoTask;
  std::int64_t result = 0;
  std::exception_ptr error;
  // Request-lifetime span (admission -> completion). Detached because
  // it is opened by the submitting task and closed by a worker; its
  // context parents the worker's server.handle span (DESIGN.md §10).
  telemetry::Tracer::DetachedSpan span;
};

ServingCore::ServingCore(sched::Scheduler& sched, core::MultiIsolateApp& app,
                         Shape shape)
    : env_(app.env()),
      sched_(sched),
      app_(&app),
      shape_(std::move(shape)),
      sealer_(shape_.recovery.platform_secret),
      recovery_done_(sched) {
  MSV_CHECK_MSG(shape_.slots > 0, "need at least one isolate slot");
  MSV_CHECK_MSG(!shape_.lanes.empty() && shape_.workers_per_lane > 0,
                "need at least one worker");
  MSV_CHECK_MSG(shape_.max_queue_depth > 0, "queue depth must be positive");
  MSV_CHECK_MSG(shape_.recovery.max_attempts > 0,
                "retry budget needs at least one attempt");
  MSV_CHECK_MSG(shape_.recovery.backoff_multiplier >= 1.0,
                "backoff must not shrink");
  for (std::uint32_t i = 0; i < shape_.slots; ++i) {
    slots_.push_back(std::make_unique<Slot>(sched_));
    slots_.back()->index = i;
  }
  for (std::size_t l = 0; l < shape_.lanes.size(); ++l) {
    lanes_.push_back(std::make_unique<Lane>(sched_));
  }
}

ServingCore::~ServingCore() = default;

ServingCore::Slot& ServingCore::slot(std::uint32_t index) {
  MSV_CHECK_MSG(index < slots_.size(), "no such tenant slot");
  return *slots_[index];
}

const ServingCore::Slot& ServingCore::slot(std::uint32_t index) const {
  MSV_CHECK_MSG(index < slots_.size(), "no such tenant slot");
  return *slots_[index];
}

void ServingCore::start() {
  MSV_CHECK_MSG(!sched_.in_task(), "start() must be called outside tasks");
  if (shape_.restore == Restore::kEager) {
    for (auto& slot : slots_) restore_session(*slot, generation_);
  }
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    Lane* lane = lanes_[l].get();
    for (std::uint32_t w = 0; w < shape_.workers_per_lane; ++w) {
      sched_.spawn_daemon(shape_.lanes[l] + "-w" + std::to_string(w),
                          [this, lane] { worker_loop(*lane); });
    }
  }
  started_ = true;
}

void ServingCore::begin_stop() {
  stopping_ = true;
  for (auto& lane : lanes_) lane->ready.notify_all();
}

void ServingCore::end_stop() {
  stopping_ = false;
  started_ = false;
}

// ---------------------------------------------------------------------------
// Admission

bool ServingCore::shed(Slot& slot, std::uint64_t ServeCounters::*cause) {
  ServeCounters& st = *slot.ledger->stats;
  ++st.shed;
  if (cause != nullptr) ++(st.*cause);
  if (slo_ != nullptr) slo_->record_shed(slo_key_);
  return false;
}

void ServingCore::enqueue(Slot& slot, Pending* p) {
  if (env_.telemetry.tracer().enabled(shape_.request_category)) {
    p->span = env_.telemetry.tracer().begin_detached(
        shape_.request_category, shape_.request_name,
        static_cast<std::int32_t>(slot.tenant));
  }
  slot.queue.push_back(p);
  ++pending_;
  ServeCounters& st = *slot.ledger->stats;
  st.max_queue_depth = std::max(st.max_queue_depth, slot.queue.size());
  ++st.accepted;
  Lane& lane = *lanes_[slot.index % lanes_.size()];
  lane.work.push_back(slot.index);
  lane.ready.notify_one();
}

bool ServingCore::submit(Slot& slot, Request r) {
  MSV_CHECK_MSG(started_, "serving core not started");
  // Degradation ladder at admission (retry -> recover -> shed): a
  // recovering enclave cannot serve, and a quiesced tenant is about to
  // move — shed rather than queue against either (the counters keep the
  // causes distinguishable).
  if (recovering_) return shed(slot, &ServeCounters::shed_recovery);
  if (slot.quiescing) return shed(slot, &ServeCounters::shed_migrating);
  if (queue_full(slot)) {
    if (shape_.shed_on_full) return shed(slot, nullptr);
    MSV_CHECK_MSG(sched_.in_task(),
                  "blocking admission requires a scheduler task");
    while (queue_full(slot)) slot.space.wait();
  }
  if (r.arrival == 0) r.arrival = env_.clock.now();
  auto* p = new Pending;
  p->req = r;
  p->owned = true;
  enqueue(slot, p);
  return true;
}

std::int64_t ServingCore::submit_and_wait(Slot& slot, Request r) {
  MSV_CHECK_MSG(started_, "serving core not started");
  MSV_CHECK_MSG(sched_.in_task(), "submit_and_wait must run inside a task");
  // Closed-loop clients are synchronous; they block for space, never shed.
  while (queue_full(slot)) slot.space.wait();
  if (r.arrival == 0) r.arrival = env_.clock.now();
  Pending p;
  p.req = r;
  p.waiter = sched_.current();
  enqueue(slot, &p);
  try {
    while (!p.done) sched_.suspend();
  } catch (...) {
    // Cancellation while queued: withdraw the stack descriptor. Once a
    // worker has popped it, the worker is guaranteed never to touch it
    // again on a cancelled timeline (every suspension point throws).
    auto it = std::find(slot.queue.begin(), slot.queue.end(), &p);
    if (it != slot.queue.end()) {
      slot.queue.erase(it);
      --pending_;
    }
    throw;
  }
  if (p.error) std::rethrow_exception(p.error);
  return p.result;
}

// ---------------------------------------------------------------------------
// Serving

ServingCore::Pending* ServingCore::take(Slot& slot) {
  Pending* p = slot.queue.front();
  slot.queue.pop_front();
  slot.space.notify_one();
  ++slot.in_flight;
  return p;
}

void ServingCore::worker_loop(Lane& lane) {
  for (;;) {
    while (lane.work.empty()) {
      if (stopping_) return;
      lane.ready.wait();
    }
    Slot& slot = *slots_[lane.work.front()];
    lane.work.pop_front();
    // One token is pushed per enqueue; a batch consumes several queue
    // entries at once, so later tokens may find nothing left.
    if (slot.queue.empty()) continue;
    // Coalescing: a worker waking to a backlog drains up to coalesce_max
    // requests and serves them in one batched transition. A backlog of one
    // (or coalesce_max = 1) takes the single-request path below unchanged,
    // so the uncoalesced timeline is preserved exactly.
    if (shape_.coalesce_max > 1 && slot.queue.size() > 1) {
      std::vector<Pending*> batch;
      while (!slot.queue.empty() && batch.size() < shape_.coalesce_max) {
        batch.push_back(take(slot));
      }
      execute_batch(slot, batch);
      continue;
    }
    Pending* p = take(slot);
    {
      // Service span, adopted under the request's detached span so the
      // whole chain — request -> handle -> rmi -> ecall — is one tree.
      telemetry::AdoptedSpanScope handle(
          env_.telemetry.tracer(), p->span.ctx, telemetry::Category::kServer,
          env_.telemetry.names().server_handle,
          static_cast<std::int32_t>(slot.tenant));
      wait_out_gc(slot);
      serve(slot, p);
    }
    finish_request(slot, p);
  }
}

void ServingCore::wait_out_gc(Slot& slot) {
  // GC gate: this slot's isolate is paused while its heap is collected;
  // the request waits out the pause. Other slots' requests never pass
  // through this gate (§2.2 isolate independence).
  while (slot.gc_active) {
    const Cycles gate_start = env_.clock.now();
    slot.gc_done.wait();
    slot.ledger->stats->gc_gate_wait_cycles += env_.clock.now() - gate_start;
  }
}

void ServingCore::serve(Slot& slot, Pending* p) {
  try {
    p->result = execute_with_retry(slot, *p);
    maybe_checkpoint(slot);
  } catch (const sched::TaskCancelled&) {
    // Teardown: unwind without touching the descriptor — its owner (a
    // cancelled submit_and_wait frame) may already be gone.
    throw;
  } catch (...) {
    p->error = std::current_exception();
  }
}

// Completion bookkeeping shared by the single and coalesced paths: closes
// the request span, records latency or failure, releases the descriptor
// and wakes a closed-loop waiter (and a migration fence).
void ServingCore::finish_request(Slot& slot, Pending* p) {
  const Cycles done_at = env_.clock.now();
  env_.telemetry.tracer().end_detached(p->span);
  Ledger& ledger = *slot.ledger;
  if (p->error) {
    // Failed requests are availability losses, not latency samples.
    ++ledger.stats->failed;
    if (slo_ != nullptr) slo_->record_error(slo_key_);
  } else {
    const Cycles latency = done_at - p->req.arrival;
    if (ledger.latency_hist != nullptr) ledger.latency_hist->record(latency);
    if (slo_ != nullptr) slo_->record_latency(slo_key_, latency);
    ledger.latencies.push_back(latency);
    if (ledger.keep_completion_times) {
      ledger.completion_times.push_back(done_at);
    }
    ++ledger.stats->completed;
  }
  --slot.in_flight;
  --pending_;
  p->done = true;
  if (p->waiter != sched::kNoTask) sched_.wake(p->waiter);
  if (p->owned) delete p;
  if (slot.quiescing && slot.queue.empty() && slot.in_flight == 0) {
    slot.drained.notify_all();
  }
}

// Executes a drained swing of >= 2 requests as one batched transition.
void ServingCore::execute_batch(Slot& slot, std::vector<Pending*>& batch) {
  // Same GC gate as the single path, taken once for the swing: the whole
  // batch executes inside this isolate's un-paused window.
  wait_out_gc(slot);
  try {
    // Recovery (and the session rebuild) run inside the try: a fault here
    // drops to the per-request fallback, which owns the retry budget.
    if (shape_.recovery.enabled) ensure_recovered();
    ensure_session(slot);
    core::MultiIsolateApp& app = *app_;
    const model::ClassDecl& cls =
        app.untrusted_context().class_of(slot.state.session.as_ref());
    std::vector<rmi::ProxyRuntime::BatchCall> calls(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      calls[i].proxy = slot.state.session.as_ref();
      calls[i].stub = cls.find_method(method_of(batch[i]->req));
      calls[i].args = args_of(batch[i]->req);
    }
    const std::vector<rmi::ProxyRuntime::BatchOutcome> outcomes =
        app.rmi().invoke_batch(calls);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Pending* p = batch[i];
      if (outcomes[i].ok) {
        p->result = result_of(outcomes[i].value);
        maybe_checkpoint(slot);
      } else {
        // Per-call application fault, surfaced in-band by the batch
        // dispatcher: fail this request only.
        p->error = std::make_exception_ptr(RuntimeFault(outcomes[i].error));
      }
      finish_request(slot, p);
    }
    return;
  } catch (...) {
    // Teardown (TaskCancelled) unwinds without touching the descriptors.
    if (!absorb_fault(slot)) throw;
  }
  // The whole batch aborted before any call executed (lost enclave, stale
  // session, transient transition fault — the up-front epoch fence in
  // invoke_batch guarantees no partial execution). Re-run each request
  // through the ordinary retry ladder, which recovers the enclave and
  // applies the per-request backoff budget; with recovery disabled the
  // fault surfaces as each request's error, as in the single path.
  for (Pending* p : batch) {
    serve(slot, p);
    finish_request(slot, p);
  }
}

// Runs one request, absorbing recoverable faults under the retry budget;
// the first step of every attempt is the recovery barrier.
std::int64_t ServingCore::execute_with_retry(Slot& slot, Pending& p) {
  const RecoveryConfig& rc = shape_.recovery;
  const Cycles deadline = p.req.arrival + rc.request_deadline_cycles;
  Cycles backoff = rc.initial_backoff_cycles;
  std::uint32_t attempt = 0;
  for (;;) {
    try {
      // Recovery runs inside the try on purpose: a fault during restart
      // or restore consumes this attempt and re-enters the backoff path,
      // instead of escaping the loop mid-recovery.
      if (rc.enabled) ensure_recovered();
      ensure_session(slot);
      return result_of(app_->untrusted_context().invoke(
          slot.state.session.as_ref(), method_of(p.req), args_of(p.req)));
    } catch (...) {
      if (!absorb_fault(slot) || !rc.enabled) throw;
    }
    ++attempt;
    ++slot.ledger->stats->retries;
    const std::string where =
        shape_.retry_where + "tenant " + std::to_string(slot.tenant);
    if (attempt >= rc.max_attempts) {
      throw RetriesExhaustedError("request failed after " +
                                  std::to_string(attempt) + " attempts (" +
                                  where + ")");
    }
    if (env_.clock.now() + backoff > deadline) {
      throw RetriesExhaustedError(
          "retry backoff would exceed the request deadline (" + where +
          ", attempt " + std::to_string(attempt) + ")");
    }
    {
      // The retry span covers the backoff sleep: its duration in the
      // trace *is* the wait this attempt added to the request.
      telemetry::SpanScope span(
          env_.telemetry.tracer(), telemetry::Category::kFault,
          env_.telemetry.names().rmi_retry,
          static_cast<std::int32_t>(slot.tenant));
      sched_.sleep_for(backoff);
    }
    backoff = std::min(
        static_cast<Cycles>(static_cast<double>(backoff) *
                            rc.backoff_multiplier),
        rc.max_backoff_cycles);
  }
}

// ---------------------------------------------------------------------------
// Recovery

bool ServingCore::absorb_fault(Slot& slot) {
  try {
    throw;
  } catch (const rmi::StaleProxyError&) {
    // Lazy restore: the session itself went stale (fenced by a promotion
    // this worker raced, or minted under a dead incarnation) — rebuild it
    // on the next attempt even if no recovery runs. Under eager restore
    // the barrier has already rebuilt it and the retry reuses it.
    if (shape_.restore == Restore::kLazy) slot.state.session_generation = 0;
  } catch (const sgx::EnclaveLostError&) {
  } catch (const sgx::TransitionError&) {
  } catch (...) {
    return false;
  }
  // Recorded at the catch site — before ensure_recovered() can run the
  // ladder — so the SLO monitor's health flip is never later than the
  // failover it predicts (the fig_fleet degraded-before-ladder gate).
  if (slo_ != nullptr) slo_->record_error(slo_key_);
  return true;
}

// The first worker to find the enclave lost (or, under eager restore, a
// session stale) recovers; the rest park on recovery_done_ and admission
// sheds meanwhile.
void ServingCore::ensure_recovered() {
  // Parked workers re-check on wake: the recovery they waited out may
  // itself have been interrupted by another loss.
  while (recovering_) recovery_done_.wait();
  const bool lost = app_->enclave().state() == sgx::EnclaveState::kLost;
  const bool eager = shape_.restore == Restore::kEager;
  const auto any_stale = [this] {
    return std::any_of(slots_.begin(), slots_.end(),
                       [this](const auto& slot) { return stale(*slot); });
  };
  if (!lost && !(eager && any_stale())) return;
  recovering_ = true;
  try {
    if (!eager) {
      shape_.fail_over();
    } else {
      if (lost) restart_enclave();
      // Restore only the sessions still behind — resuming a restore that
      // a second fault interrupted picks up where it left off.
      for (auto& slot : slots_) {
        if (stale(*slot)) restore_session(*slot, generation_);
      }
    }
  } catch (...) {
    recovering_ = false;
    recovery_done_.notify_all();
    throw;
  }
  recovering_ = false;
  recovery_done_.notify_all();
}

void ServingCore::restart_enclave() {
  app_->restart_enclave();
  ++restarts_;
  ++generation_;
}

void ServingCore::ensure_session(Slot& slot) {
  // Only lazy restore finds a stale session here: under eager restore the
  // barrier has rebuilt every session before any request proceeds.
  // construct_in yields inside its ecall, and another worker may fail over
  // meanwhile — so the generation a session counts for is the one
  // captured *before* the build, and a mid-build flip just loops.
  while (slot.state.session_generation != generation_) {
    const std::uint64_t generation = generation_;
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kFleet,
                              env_.telemetry.names().fleet_restore,
                              static_cast<std::int32_t>(slot.tenant));
    restore_session(slot, generation);
  }
}

// Unseals the slot's checkpoint (if any) and rebuilds its session on it.
void ServingCore::restore_session(Slot& slot, std::uint64_t generation) {
  core::MultiIsolateApp& app = *app_;
  std::int32_t balance = shape_.initial_balance;
  try {
    if (const auto restored =
            slot.state.unseal_checkpoint(sealer_, app.enclave(), slot.tenant)) {
      balance = *restored;
      ++slot.ledger->stats->restored;
    }
  } catch (const SecurityFault&) {
    // Tampered or spliced blob: refuse it, count it, and fall back to a
    // fresh session — corruption must never fail the whole recovery.
    ++slot.ledger->stats->checkpoint_corrupt;
    slot.state.checkpoint.clear();
    balance = shape_.initial_balance;
  }
  slot.state.session = app.construct_in(
      slot.index, "Account",
      {rt::Value("tenant-" + std::to_string(slot.tenant)),
       rt::Value(balance)});
  slot.state.session_generation = generation;
}

void ServingCore::maybe_checkpoint(Slot& slot) {
  const RecoveryConfig& rc = shape_.recovery;
  if (!rc.enabled || rc.checkpoint_every == 0) return;
  if (++slot.state.since_checkpoint < rc.checkpoint_every) return;
  slot.state.since_checkpoint = 0;
  try {
    seal(slot);
  } catch (const sched::TaskCancelled&) {
    throw;
  } catch (...) {
    // A fault mid-checkpoint loses this checkpoint, not the request: the
    // previous sealed blob (and its replica copy) stay valid and the next
    // interval retries. The sequence never rolls back, so the next seal
    // takes a fresh seq and with it a fresh IV.
  }
}

const std::vector<std::uint8_t>& ServingCore::seal(Slot& slot) {
  const rt::Value balance = app_->untrusted_context().invoke(
      slot.state.session.as_ref(), "getBalance", {});
  const std::vector<std::uint8_t>& blob = slot.state.seal_checkpoint(
      sealer_, app_->enclave(), slot.tenant, balance.as_i32());
  ServeCounters& st = *slot.ledger->stats;
  ++st.checkpoints;
  if (slot.replica != nullptr) {
    // The replication stream: the sealed blob is forwarded to the standby
    // verbatim (sealed bytes are already safe in untrusted hands, and the
    // standby's measurement derives the same unsealing key).
    *slot.replica = blob;
    ++st.replicated_blobs;
    st.replicated_bytes += blob.size();
  }
  return blob;
}

}  // namespace msv::server
