// Multi-isolate partitioned application (future work §7, second item).
//
// Like PartitionedApp, but the enclave hosts N trusted isolates — separate
// heaps running the same trusted image, independently garbage collected
// (§2.2) — behind one measured enclave and one bridge. The untrusted
// runtime addresses a specific isolate when creating proxies
// (construct_in), and each proxy stays bound to the isolate that owns its
// mirror. Typical use: one isolate per tenant of an enclave service.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/app.h"
#include "rmi/proxy_runtime.h"

namespace msv::core {

class MultiIsolateApp {
 public:
  MultiIsolateApp(const model::AppModel& app, std::uint32_t trusted_isolates,
                  AppConfig config = {},
                  interp::IntrinsicTable intrinsics =
                      interp::IntrinsicTable::defaults());

  // Shared-environment variant for multi-enclave topologies (the fleet,
  // DESIGN.md §14): every enclave of the fleet lives on ONE machine — one
  // virtual clock, one cost model, one telemetry spine — so `env` is
  // borrowed, not owned. config.cost / config.fs / config.trace are
  // ignored; the caller configured the shared Env once. `name_suffix`
  // disambiguates the enclaves ("shard0-a", ...) in traces and errors.
  MultiIsolateApp(Env& env, const model::AppModel& app,
                  std::uint32_t trusted_isolates, AppConfig config = {},
                  const std::string& name_suffix = "",
                  interp::IntrinsicTable intrinsics =
                      interp::IntrinsicTable::defaults());
  ~MultiIsolateApp();

  MultiIsolateApp(const MultiIsolateApp&) = delete;
  MultiIsolateApp& operator=(const MultiIsolateApp&) = delete;

  Env& env() { return env_; }
  double now_seconds() const { return env_.clock.seconds(); }
  std::uint32_t isolate_count() const { return rmi_->isolate_count(); }

  interp::ExecContext& untrusted_context() { return *untrusted_ctx_; }
  interp::ExecContext& trusted_context(std::uint32_t index);
  rmi::ProxyRuntime& rmi() { return *rmi_; }
  sgx::TransitionBridge& bridge() { return *bridge_; }
  sgx::Enclave& enclave() { return *enclave_; }

  // Creates a proxy whose mirror lives in trusted isolate `index`.
  rt::Value construct_in(std::uint32_t index, const std::string& cls,
                         std::vector<rt::Value> args);

  // Collects one trusted isolate's heap — the others keep running
  // untouched (the GraalVM isolate property the design builds on, §2.2).
  void collect_isolate(std::uint32_t index);

  // Recovery path for a lost enclave (DESIGN.md §12): re-create and
  // re-measure against the trusted image (charging the full build cost),
  // then fence the RMI layer so stale proxies fault instead of routing to
  // dead mirrors. Callers rebuild session state afterwards — typically by
  // unsealing a checkpoint (server/server.h). Throws unless the enclave is
  // currently lost.
  void restart_enclave();

 private:
  // Common tail of both constructors: everything after the Env exists.
  void build(const model::AppModel& app, std::uint32_t trusted_isolates,
             const std::string& name_suffix,
             interp::IntrinsicTable intrinsics);

  std::unique_ptr<Env> owned_env_;  // null in the shared-Env variant
  Env& env_;
  AppConfig config_;
  xform::NativeImage trusted_image_;
  xform::NativeImage untrusted_image_;
  std::unique_ptr<sgx::Enclave> enclave_;
  std::unique_ptr<UntrustedDomain> untrusted_domain_;
  std::unique_ptr<sgx::EnclaveDomain> trusted_domain_;
  std::vector<std::unique_ptr<rt::Isolate>> trusted_isos_;
  std::unique_ptr<rt::Isolate> untrusted_iso_;
  std::unique_ptr<sgx::TransitionBridge> bridge_;
  std::unique_ptr<shim::HostIo> host_io_;
  std::unique_ptr<shim::EnclaveShim> enclave_shim_;
  std::vector<std::unique_ptr<interp::ExecContext>> trusted_ctxs_;
  std::unique_ptr<interp::ExecContext> untrusted_ctx_;
  std::unique_ptr<rmi::ProxyRuntime> rmi_;
};

}  // namespace msv::core
