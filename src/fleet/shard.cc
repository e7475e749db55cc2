#include "fleet/shard.h"

#include <functional>
#include <string>
#include <utility>

#include "faults/injector.h"
#include "support/error.h"
#include "telemetry/flight.h"
#include "telemetry/slo.h"

namespace msv::fleet {

namespace {

std::unique_ptr<core::MultiIsolateApp> make_app(
    Env& env, const model::AppModel& app_model, const ShardConfig& config,
    const core::AppConfig& app_config, const std::string& name) {
  return std::make_unique<core::MultiIsolateApp>(env, app_model, config.slots,
                                                 app_config, name);
}

server::ServingCore::Shape shard_shape(const ShardConfig& config, Env& env,
                                       std::uint32_t shard_id,
                                       std::function<void()> fail_over) {
  server::ServingCore::Shape shape;
  shape.restore = server::ServingCore::Restore::kLazy;
  shape.slots = config.slots;
  // One lane for all slots: the workers share a FIFO of slot tokens.
  shape.lanes = {"flt-s" + std::to_string(shard_id)};
  shape.workers_per_lane = config.workers;
  shape.max_queue_depth = config.max_queue_depth;
  shape.coalesce_max = config.coalesce_max;
  shape.initial_balance = config.initial_balance;
  shape.recovery = config.recovery;
  shape.request_category = telemetry::Category::kFleet;
  shape.request_name = env.telemetry.names().fleet_request;
  shape.retry_where = "shard " + std::to_string(shard_id) + ", ";
  shape.fail_over = std::move(fail_over);
  return shape;
}

}  // namespace

Shard::Shard(Env& env, sched::Scheduler& sched,
             const model::AppModel& app_model, std::uint32_t shard_id,
             ShardConfig config, core::AppConfig app_config)
    : env_(env),
      sched_(sched),
      shard_id_(shard_id),
      config_(config),
      // Both enclaves are built (and their ECREATE/EADD/EINIT bill paid) at
      // fleet start, on the shared clock — the standby's warmth is exactly
      // this prepaid cost.
      apps_{make_app(env, app_model, config, app_config,
                     "shard" + std::to_string(shard_id) + "-a"),
            config.replication
                ? make_app(env, app_model, config, app_config,
                           "shard" + std::to_string(shard_id) + "-b")
                : nullptr},
      standby_ready_(config.replication),
      replicas_(config.slots),
      core_(sched, *apps_[0],
            shard_shape(config, env, shard_id, [this] { fail_over(); })) {
  ledger_.stats = &stats_;
  for (std::uint32_t i = 0; i < core_.slot_count(); ++i) {
    server::ServingCore::Slot& slot = core_.slot(i);
    slot.ledger = &ledger_;
    if (config_.replication) slot.replica = &replicas_[i];
  }
}

Shard::~Shard() = default;

void Shard::start() {
  if (core_.started()) return;
  MSV_CHECK_MSG(!sched_.in_task(), "start() must be called outside tasks");
  apps_[0]->bridge().attach_scheduler(sched_);
  if (apps_[1] != nullptr) apps_[1]->bridge().attach_scheduler(sched_);
  core_.start();
}

// ---------------------------------------------------------------------------
// Residency

server::ServingCore::Slot& Shard::slot_for(std::uint32_t tenant) {
  const auto it = slot_of_.find(tenant);
  MSV_CHECK_MSG(it != slot_of_.end(),
                "tenant " + std::to_string(tenant) + " is not resident on "
                "shard " + std::to_string(shard_id_));
  return core_.slot(it->second);
}

void Shard::bind_tenant(std::uint32_t tenant) {
  MSV_CHECK_MSG(slot_of_.count(tenant) == 0, "tenant already resident");
  for (std::uint32_t i = 0; i < core_.slot_count(); ++i) {
    if (core_.slot(i).tenant != server::ServingCore::Slot::kFree) continue;
    assign(core_.slot(i), tenant);  // session built lazily on first touch
    slot_of_[tenant] = i;
    return;
  }
  MSV_CHECK_MSG(false, "shard " + std::to_string(shard_id_) +
                           " has no free isolate slot");
}

void Shard::adopt_checkpoint(std::uint32_t tenant,
                             std::vector<std::uint8_t> blob) {
  bind_tenant(tenant);
  server::ServingCore::Slot& slot = slot_for(tenant);
  slot.state.checkpoint = std::move(blob);
  // Seed the standby's copy too: a promotion immediately after a
  // migration must not lose the migrated tenant.
  if (slot.replica != nullptr) *slot.replica = slot.state.checkpoint;
}

std::vector<std::uint8_t> Shard::seal_tenant(std::uint32_t tenant) {
  server::ServingCore::Slot& slot = slot_for(tenant);
  core_.ensure_session(slot);
  return core_.seal(slot);
}

void Shard::unbind_tenant(std::uint32_t tenant) {
  server::ServingCore::Slot& slot = slot_for(tenant);
  MSV_CHECK_MSG(slot.queue.empty() && slot.in_flight == 0,
                "unbinding a tenant with requests in flight");
  slot_of_.erase(tenant);
  assign(slot, server::ServingCore::Slot::kFree);
}

void Shard::assign(server::ServingCore::Slot& slot, std::uint32_t tenant) {
  slot.tenant = tenant;
  slot.state = server::TenantState{};
  replicas_[slot.index].clear();
  slot.quiescing = false;
}

std::vector<std::uint32_t> Shard::resident_tenants() const {
  std::vector<std::uint32_t> out;
  out.reserve(slot_of_.size());
  for (const auto& [tenant, index] : slot_of_) out.push_back(tenant);
  return out;
}

void Shard::quiesce_tenant(std::uint32_t tenant) {
  MSV_CHECK_MSG(sched_.in_task(), "quiesce must run inside a task");
  server::ServingCore::Slot& slot = slot_for(tenant);
  slot.quiescing = true;
  // A worker mid-swing finishes its whole coalesced batch before the
  // in-flight count returns to zero — the §13 fence the drain sits behind.
  while (!slot.queue.empty() || slot.in_flight > 0) slot.drained.wait();
}

// ---------------------------------------------------------------------------
// Failover

void Shard::fail_over() {
  if (stats_.first_recovery_started_cycles == 0) {
    stats_.first_recovery_started_cycles = env_.clock.now();
  }
  const Cycles t0 = env_.clock.now();
  {
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kFleet,
                              env_.telemetry.names().fleet_failover,
                              static_cast<std::int32_t>(shard_id_));
    if (standby_ready_) {
      promote_standby_locked();
    } else {
      // Cold path: the §12 ladder — re-create and re-measure the enclave
      // inline, on the serving timeline. Sessions rebuild lazily.
      core_.restart_enclave();
      ++stats_.restarts;
    }
  }
  stats_.last_recovery_cycles = env_.clock.now() - t0;
  stats_.recovery_cycles += stats_.last_recovery_cycles;
  // A new authority (or freshly re-measured enclave) starts with a clean
  // error budget: the outage is the old incarnation's debt.
  if (telemetry::SloMonitor* slo = core_.slo()) {
    slo->note_epoch(shard_id_, authority_epoch_);
  }
}

void Shard::promote_standby() {
  MSV_CHECK_MSG(!core_.recovering(),
                "promotion while a recovery is in flight");
  MSV_CHECK_MSG(standby_ready_, "no warm standby to promote");
  promote_standby_locked();
  if (telemetry::SloMonitor* slo = core_.slo()) {
    slo->note_epoch(shard_id_, authority_epoch_);
  }
}

void Shard::promote_standby_locked() {
  MSV_CHECK_MSG(apps_[active_ ^ 1] != nullptr && standby_ready_,
                "promote without a ready standby");
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kFleet,
                            env_.telemetry.names().fleet_promote,
                            static_cast<std::int32_t>(shard_id_));
  // Fence first: requests still holding sessions minted on the demoted
  // runtime fault with StaleProxyError and rebuild — never double-execute
  // against an enclave that stopped being the authority (which, in a
  // planned failover, is still perfectly alive).
  apps_[active_]->rmi().fence_proxies();
  const std::uint32_t demoted = active_;
  active_ ^= 1;
  core_.set_app(*apps_[active_]);
  ++authority_epoch_;
  core_.invalidate_sessions();
  ++stats_.promotions;
  // Freeze the demoted enclave's flight ring: the post-mortem shows what
  // the old authority was doing when it stopped being the authority.
  if (telemetry::FlightBus* bus = env_.telemetry.flight()) {
    bus->recorder(apps_[demoted]->enclave().name())
        .record(telemetry::FlightEventKind::kLifecycle, "shard.promote",
                static_cast<std::int64_t>(shard_id_),
                static_cast<std::int64_t>(authority_epoch_));
    bus->snapshot(apps_[demoted]->enclave().name(), "promotion",
                  {{"shard", std::to_string(shard_id_)},
                   {"authority_epoch", std::to_string(authority_epoch_)}});
  }
  // The replica's streamed copies are the blobs the new authority actually
  // holds; adopt them as the authoritative checkpoints.
  for (std::uint32_t i = 0; i < core_.slot_count(); ++i) {
    server::ServingCore::Slot& slot = core_.slot(i);
    if (slot.tenant != server::ServingCore::Slot::kFree &&
        !replicas_[i].empty()) {
      slot.state.checkpoint = replicas_[i];
    }
  }
  // The injector follows the authority: faults strike whichever enclave
  // serves the shard.
  if (injector_ != nullptr) {
    apps_[demoted]->bridge().attach_fault_injector(nullptr);
    apps_[active_]->bridge().attach_fault_injector(injector_);
    injector_->retarget(apps_[active_]->enclave());
  }
  standby_ready_ = false;
  if (apps_[demoted]->enclave().state() == sgx::EnclaveState::kLost) {
    // Rebuild the lost enclave as the next standby on a detached core
    // (the §5.5 helper-thread pattern): its 20M-cycle re-measure never
    // stalls the promoted authority's serving timeline.
    sched_.spawn("flt-s" + std::to_string(shard_id_) + "-rebuild",
                 [this, demoted] {
                   const Cycles cost = env_.clock.measure_detached(
                       [&] { apps_[demoted]->restart_enclave(); });
                   sched_.sleep_for(cost);
                   standby_ready_ = true;
                   ++stats_.standby_rebuilds;
                 });
  } else {
    // Planned failover: the healthy demoted app is the new standby as-is.
    standby_ready_ = true;
  }
}

void Shard::attach_injector(faults::FaultInjector* injector) {
  injector_ = injector;
  active_app().bridge().attach_fault_injector(injector);
}

}  // namespace msv::fleet
