#include "server/server.h"

#include <string>

#include "faults/injector.h"
#include "support/error.h"

namespace msv::server {

namespace {

ServingCore::Shape server_shape(const ServerConfig& config, Env& env,
                                std::uint32_t tenants) {
  ServingCore::Shape shape;
  shape.restore = ServingCore::Restore::kEager;
  shape.slots = tenants;
  // One lane per tenant: each tenant's workers drain only its own queue.
  for (std::uint32_t t = 0; t < tenants; ++t) {
    shape.lanes.push_back("srv-t" + std::to_string(t));
  }
  shape.workers_per_lane = config.workers_per_tenant;
  shape.max_queue_depth = config.max_queue_depth;
  shape.shed_on_full = config.shed_on_full;
  shape.coalesce_max = config.coalesce_max;
  shape.initial_balance = config.initial_balance;
  shape.recovery = config.recovery;
  shape.request_category = telemetry::Category::kServer;
  shape.request_name = env.telemetry.names().request;
  return shape;
}

}  // namespace

RequestServer::RequestServer(sched::Scheduler& sched,
                             core::MultiIsolateApp& app, ServerConfig config)
    : env_(app.env()),
      sched_(sched),
      app_(app),
      config_(config),
      core_(sched, app, server_shape(config, app.env(), app.isolate_count())) {
  for (std::uint32_t t = 0; t < app_.isolate_count(); ++t) {
    tenants_.push_back(std::make_unique<Tenant>());
    Tenant& ten = *tenants_.back();
    ten.ledger.stats = &ten.stats;
    ten.ledger.keep_completion_times = true;
    ServingCore::Slot& slot = core_.slot(t);
    slot.tenant = t;
    slot.ledger = &ten.ledger;
  }
}

RequestServer::~RequestServer() {
  try {
    stop();
  } catch (...) {
    // Destructor teardown of a half-wedged simulation must not terminate.
  }
}

const RequestServer::Tenant& RequestServer::tenant(std::uint32_t t) const {
  MSV_CHECK_MSG(t < tenants_.size(), "no such tenant");
  return *tenants_[t];
}

void RequestServer::start() {
  if (core_.started()) return;
  MSV_CHECK_MSG(!sched_.in_task(), "start() must be called outside tasks");
  app_.bridge().attach_scheduler(sched_);
  if (config_.switchless) {
    // Flag the relay transitions switchless by prefix, the way
    // PartitionedApp walks its EDL spec, then bring up the rings.
    const auto& names = app_.bridge().call_names();
    for (sgx::CallId id = 0; id < names.size(); ++id) {
      if (names[id].rfind("ecall_relay_", 0) == 0 ||
          names[id].rfind("ocall_relay_", 0) == 0) {
        app_.bridge().set_switchless(id, true);
      }
    }
    app_.bridge().start_switchless_workers(config_.ecall_ring,
                                           config_.ocall_ring);
  }
  if (env_.telemetry.metrics_enabled()) {
    // Handles resolved once; workers record with a pointer poke.
    for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
      tenants_[t]->ledger.latency_hist = &env_.telemetry.metrics().histogram(
          "msv_server_request_latency_cycles",
          {{"tenant", std::to_string(t)}});
    }
  }
  core_.start();
}

void RequestServer::stop() {
  if (!core_.started()) return;
  MSV_CHECK_MSG(!sched_.in_task(), "stop() must be called outside tasks");
  core_.begin_stop();
  // Workers drain their queues, observe the stop flag and retire; run()
  // returns once only parked daemons (none of ours) remain.
  sched_.run();
  if (app_.bridge().switchless_workers_running()) {
    app_.bridge().stop_switchless_workers();
  }
  core_.end_stop();
}

void RequestServer::attach_fault_injector(faults::FaultInjector& injector) {
  injector.set_blob_corrupter([this](Rng& rng) {
    std::vector<std::uint32_t> with;
    for (std::uint32_t t = 0; t < tenant_count(); ++t) {
      if (core_.slot(t).state.has_checkpoint()) with.push_back(t);
    }
    if (with.empty()) return false;
    std::vector<std::uint8_t>& bytes =
        core_.slot(with[rng.next_below(with.size())]).state.checkpoint;
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    return true;
  });
}

void RequestServer::collect_tenant_async(std::uint32_t tenant_id) {
  MSV_CHECK_MSG(core_.started(), "server not started");
  MSV_CHECK_MSG(tenant_id < tenants_.size(), "no such tenant");
  sched_.spawn("gc-tenant-" + std::to_string(tenant_id), [this, tenant_id] {
    Tenant& ten = *tenants_[tenant_id];
    ServingCore::Slot& slot = core_.slot(tenant_id);
    // One collection of a heap at a time; a second request queues behind
    // the gate like any worker.
    while (slot.gc_active) slot.gc_done.wait();
    // Realized pause window of this tenant (the zero-duration gc.collect
    // phase markers from the detached collection sit inside it).
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kGc,
                              env_.telemetry.names().gc_pause,
                              static_cast<std::int32_t>(tenant_id));
    slot.gc_active = true;
    const Cycles pause_start = env_.clock.now();
    // The collection itself runs on the §5.5 GC helper thread — its own
    // core — so its cycles never advance the shared serving timeline;
    // they are realized as a sleep (pause) of this isolate only.
    const Cycles cost =
        env_.clock.measure_detached([&] { app_.collect_isolate(tenant_id); });
    sched_.sleep_for(cost);
    slot.gc_active = false;
    ++ten.stats.gc_runs;
    ten.stats.gc_pause_cycles += cost;
    ten.gc_windows.emplace_back(pause_start, env_.clock.now());
    slot.gc_done.notify_all();
  });
}

ServerStats RequestServer::stats() const {
  ServerStats s;
  for (const auto& ten : tenants_) s += ten->stats;
  return s;
}

}  // namespace msv::server
