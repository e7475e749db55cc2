#include "core/multi_app.h"

#include "support/error.h"
#include "transform/transformer.h"

namespace msv::core {

MultiIsolateApp::MultiIsolateApp(const model::AppModel& app,
                                 std::uint32_t trusted_isolates,
                                 AppConfig config,
                                 interp::IntrinsicTable intrinsics)
    : owned_env_(new Env(config.cost, config.fs)),
      env_(*owned_env_),
      config_(std::move(config)) {
  env_.telemetry.configure(config_.trace);
  build(app, trusted_isolates, "", std::move(intrinsics));
}

MultiIsolateApp::MultiIsolateApp(Env& env, const model::AppModel& app,
                                 std::uint32_t trusted_isolates,
                                 AppConfig config,
                                 const std::string& name_suffix,
                                 interp::IntrinsicTable intrinsics)
    : env_(env), config_(std::move(config)) {
  // The shared Env's cost model, filesystem and telemetry configuration
  // belong to the caller; this app only charges cycles into them.
  build(app, trusted_isolates, name_suffix, std::move(intrinsics));
}

void MultiIsolateApp::build(const model::AppModel& app,
                            std::uint32_t trusted_isolates,
                            const std::string& name_suffix,
                            interp::IntrinsicTable intrinsics) {
  MSV_CHECK_MSG(trusted_isolates >= 1, "need at least one trusted isolate");

  xform::BytecodeTransformer transformer;
  xform::TransformResult transformed = transformer.transform(app);
  xform::ImageBuilder builder(config_.image);

  auto entry_points = [&](const model::AppModel& set, bool is_trusted) {
    std::vector<xform::MethodRef> eps =
        is_trusted ? xform::trusted_image_entry_points(set)
                   : xform::untrusted_image_entry_points(set);
    for (const auto& [cls, method] : config_.extra_entry_points) {
      const model::ClassDecl* c = set.find_class(cls);
      if (c != nullptr && c->find_method(method) != nullptr) {
        eps.push_back({cls, method});
      }
    }
    return eps;
  };
  trusted_image_ = builder.build(transformed.trusted, true,
                                 entry_points(transformed.trusted, true));
  untrusted_image_ = builder.build(transformed.untrusted, false,
                                   entry_points(transformed.untrusted, false));

  const Sha256::Digest measurement = trusted_image_.measure();
  enclave_ = std::make_unique<sgx::Enclave>(
      env_,
      name_suffix.empty() ? "montsalvat_multi_enclave"
                          : "montsalvat_multi_enclave_" + name_suffix,
      measurement,
      trusted_image_.total_bytes() + shim::EnclaveShim::shim_code_bytes(),
      config_.enclave_heap_max_bytes, config_.enclave_stack_bytes,
      config_.tcs);
  enclave_->init(measurement);

  untrusted_domain_ = std::make_unique<UntrustedDomain>(env_);
  trusted_domain_ = std::make_unique<sgx::EnclaveDomain>(env_, *enclave_);
  untrusted_iso_ = std::make_unique<rt::Isolate>(
      env_, *untrusted_domain_,
      rt::Isolate::Config{"untrusted-isolate", config_.untrusted_heap_bytes,
                          untrusted_image_.image_heap_bytes});
  for (std::uint32_t k = 0; k < trusted_isolates; ++k) {
    // All trusted isolates share the enclave (and hence the EPC), but each
    // has its own heap and GC.
    trusted_isos_.push_back(std::make_unique<rt::Isolate>(
        env_, *trusted_domain_,
        rt::Isolate::Config{"trusted-isolate-" + std::to_string(k),
                            config_.trusted_heap_bytes,
                            trusted_image_.image_heap_bytes}));
  }

  bridge_ = std::make_unique<sgx::TransitionBridge>(env_, *enclave_);
  host_io_ = std::make_unique<shim::HostIo>(env_, *untrusted_domain_);
  enclave_shim_ = std::make_unique<shim::EnclaveShim>(env_, *bridge_,
                                                      *host_io_,
                                                      *trusted_domain_);
  enclave_shim_->register_ocalls();

  std::vector<interp::ExecContext*> trusted_ptrs;
  for (auto& iso : trusted_isos_) {
    trusted_ctxs_.push_back(std::make_unique<interp::ExecContext>(
        env_, *iso, trusted_image_.classes, *enclave_shim_, intrinsics));
    trusted_ptrs.push_back(trusted_ctxs_.back().get());
  }
  untrusted_ctx_ = std::make_unique<interp::ExecContext>(
      env_, *untrusted_iso_, untrusted_image_.classes, *host_io_,
      std::move(intrinsics));

  // The addressed form of the RMI runtime (rmi/proxy_runtime.h).
  rmi::ProxyRuntime::Config rmi_config;
  rmi_config.hash_scheme = config_.hash_scheme;
  rmi_ = std::make_unique<rmi::ProxyRuntime>(env_, *bridge_, trusted_ptrs,
                                             *untrusted_ctx_, rmi_config);
  rmi_->register_handlers();
  for (auto& ctx : trusted_ctxs_) ctx->set_remote(rmi_.get());
  untrusted_ctx_->set_remote(rmi_.get());
}

MultiIsolateApp::~MultiIsolateApp() = default;

interp::ExecContext& MultiIsolateApp::trusted_context(std::uint32_t index) {
  MSV_CHECK_MSG(index < trusted_ctxs_.size(), "no such trusted isolate");
  return *trusted_ctxs_[index];
}

rt::Value MultiIsolateApp::construct_in(std::uint32_t index,
                                        const std::string& cls,
                                        std::vector<rt::Value> args) {
  return rmi_->construct_in(index, cls, std::move(args));
}

void MultiIsolateApp::collect_isolate(std::uint32_t index) {
  trusted_context(index).isolate().heap().collect();
}

void MultiIsolateApp::restart_enclave() {
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kFault,
                            env_.telemetry.names().enclave_restart);
  enclave_->restart(trusted_image_.measure());
  rmi_->on_enclave_restart();
}

}  // namespace msv::core
