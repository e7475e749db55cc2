// Tests for the extension features: the tracing agent (§2.2), the
// sgx-perf-style transition profiler, and the multi-isolate proxy/mirror
// support (future work §7).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/illustrative/bank.h"
#include "apps/synthetic/generator.h"
#include "core/montsalvat.h"
#include "core/multi_app.h"
#include "sgx/profiler.h"
#include "transform/transformer.h"

namespace msv {
namespace {

using rt::Value;

// ---- Tracing agent ---------------------------------------------------------

TEST(TracingAgent, RecordsDynamicallyInvokedMethods) {
  core::NativeApp app(apps::build_bank_app());
  app.context().enable_tracing();
  app.run_main();
  const auto& traced = app.context().traced_methods();
  EXPECT_TRUE(traced.count({"Person", "transfer"}));
  EXPECT_TRUE(traced.count({"Account", "updateBalance"}));
  EXPECT_TRUE(traced.count({"Main", "main"}));
  EXPECT_FALSE(traced.count({"Account", "getOwner"}))
      << "never called by main";
}

TEST(TracingAgent, JsonFollowsReflectConfigShape) {
  core::NativeApp app(apps::build_bank_app());
  app.context().enable_tracing();
  app.run_main();
  const std::string json = app.context().trace_to_json();
  EXPECT_NE(json.find("{ \"name\": \"Account\", \"methods\": ["),
            std::string::npos);
  EXPECT_NE(json.find("{ \"name\": \"updateBalance\" }"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

TEST(TracingAgent, TraceFeedsExtraEntryPoints) {
  // The workflow the GraalVM agent exists for: a dry run discovers the
  // host-driven methods, whose trace keeps them from being pruned.
  model::AppModel app = apps::build_bank_app(/*with_audit=*/true);

  // The dry run happens in agent mode — the open world of a JVM.
  core::AppConfig agent_config;
  agent_config.root_everything = true;
  core::NativeApp dry_run(app, agent_config);
  dry_run.context().enable_tracing();
  dry_run.run_main();
  auto& ctx = dry_run.context();
  // The host also drives Vault during the dry run.
  const Value vault = ctx.construct("Vault", {});
  ctx.invoke(vault.as_ref(), "audit", {Value("x")});

  core::AppConfig config;
  for (const auto& m : ctx.traced_methods()) {
    config.extra_entry_points.push_back(m);
  }
  core::PartitionedApp partitioned(app, config);
  // Without the trace, Vault's proxy would be pruned and this would throw.
  const Value v = partitioned.untrusted_context().construct("Vault", {});
  partitioned.untrusted_context().invoke(v.as_ref(), "audit", {Value("y")});
  SUCCEED();
}

// ---- Transition profiler ---------------------------------------------------

TEST(Profiler, RanksCallsByOverheadAndRecommends) {
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const Value w = u.construct("Worker", {});
  for (int i = 0; i < 2000; ++i) {
    u.invoke(w.as_ref(), "set", {Value(std::int32_t{i})});
  }

  const auto profile =
      sgx::profile_transitions(app.bridge().stats(), app.env().cost,
                               /*min_calls=*/1000, /*small_payload=*/512);
  ASSERT_FALSE(profile.entries.empty());
  EXPECT_EQ(profile.entries.front().name, "ecall_relay_Worker_set")
      << "the hot call dominates the overhead ranking";
  EXPECT_TRUE(profile.entries.front().recommend_switchless);
  EXPECT_LT(profile.overhead_after_switchless_cycles,
            profile.total_overhead_cycles / 2);

  const std::string report =
      sgx::transition_report(profile, app.env().cost);
  EXPECT_NE(report.find("ecall_relay_Worker_set"), std::string::npos);
  EXPECT_NE(report.find("recommend"), std::string::npos);
}

TEST(Profiler, ColdCallsNotRecommended) {
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const Value w = u.construct("Worker", {});
  u.invoke(w.as_ref(), "set", {Value(std::int32_t{1})});
  const auto profile =
      sgx::profile_transitions(app.bridge().stats(), app.env().cost, 1000);
  for (const auto& e : profile.entries) {
    EXPECT_FALSE(e.recommend_switchless) << e.name;
  }
}

TEST(Profiler, NestedOcallOverheadExcludedFromSwitchlessParent) {
  // Regression: the profile is built from the bridge's measured per-call
  // transition cycles, which are exclusive. A switchless ecall issuing
  // nested ocalls must report only its own handshake+edge overhead; the
  // old constant model charged it a full hardware transition per call, so
  // the nested bridge time was effectively counted twice in the totals.
  Env env;
  sgx::Enclave enclave(env, "prof", Sha256::hash("img"), 1 << 20);
  enclave.init(Sha256::hash("img"));
  sgx::TransitionBridge bridge(env, enclave);
  const sgx::CallId log_id = bridge.register_ocall(
      "ocall_log", [](ByteReader&) { return ByteBuffer(); });
  const sgx::CallId tick_id =
      bridge.register_ecall("ecall_tick", [&, log_id](ByteReader&) {
        ByteBuffer nested;
        for (int i = 0; i < 3; ++i) bridge.ocall(log_id, ByteBuffer(), nested);
        return ByteBuffer();
      });
  bridge.set_switchless(tick_id, true);
  constexpr Cycles kCalls = 1500;
  ByteBuffer resp;
  for (Cycles i = 0; i < kCalls; ++i) {
    bridge.ecall(tick_id, ByteBuffer(), resp);
  }

  const auto profile = sgx::profile_transitions(bridge.stats(), env.cost,
                                                /*min_calls=*/1000,
                                                /*small_payload=*/512);
  const sgx::TransitionProfileEntry* parent = nullptr;
  const sgx::TransitionProfileEntry* nested = nullptr;
  for (const auto& e : profile.entries) {
    if (e.name == "ecall_tick") parent = &e;
    if (e.name == "ocall_log") nested = &e;
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(parent->transition_overhead_cycles,
            kCalls * (env.cost.switchless_call_cycles +
                      env.cost.edge_call_cycles))
      << "parent must pay only its own handshake + edge dispatch";
  EXPECT_EQ(nested->transition_overhead_cycles,
            3 * kCalls * (env.cost.ocall_cycles + env.cost.edge_call_cycles))
      << "nested ocall time belongs to the ocall's own entry";
  EXPECT_EQ(profile.total_overhead_cycles,
            parent->transition_overhead_cycles +
                nested->transition_overhead_cycles);
}

// ---- Multi-isolate pairs (future work §7) ----------------------------------

class MultiIsolateTest : public ::testing::Test {
 protected:
  MultiIsolateTest() : app_(apps::build_bank_app(), 3) {}

  core::MultiIsolateApp app_;
};

TEST_F(MultiIsolateTest, ProxiesBindToTheirIsolate) {
  auto& u = app_.untrusted_context();
  const Value a0 = app_.construct_in(
      0, "Account", {Value("tenant0"), Value(std::int32_t{10})});
  const Value a1 = app_.construct_in(
      1, "Account", {Value("tenant1"), Value(std::int32_t{20})});
  const Value a2 = app_.construct_in(
      2, "Account", {Value("tenant2"), Value(std::int32_t{30})});

  EXPECT_EQ(app_.rmi().trusted_registry(0).size(), 1u);
  EXPECT_EQ(app_.rmi().trusted_registry(1).size(), 1u);
  EXPECT_EQ(app_.rmi().trusted_registry(2).size(), 1u);

  u.invoke(a1.as_ref(), "updateBalance", {Value(std::int32_t{5})});
  EXPECT_EQ(u.invoke(a0.as_ref(), "getBalance", {}).as_i32(), 10);
  EXPECT_EQ(u.invoke(a1.as_ref(), "getBalance", {}).as_i32(), 25);
  EXPECT_EQ(u.invoke(a2.as_ref(), "getBalance", {}).as_i32(), 30);
}

TEST_F(MultiIsolateTest, HeapsAreIndependent) {
  const Value a0 = app_.construct_in(
      0, "Account", {Value("t0"), Value(std::int32_t{1})});
  const Value a1 = app_.construct_in(
      1, "Account", {Value("t1"), Value(std::int32_t{2})});
  (void)a0;

  const auto gc0_before =
      app_.trusted_context(0).isolate().heap().stats().gc_count;
  const auto gc1_before =
      app_.trusted_context(1).isolate().heap().stats().gc_count;
  app_.collect_isolate(0);
  EXPECT_EQ(app_.trusted_context(0).isolate().heap().stats().gc_count,
            gc0_before + 1);
  EXPECT_EQ(app_.trusted_context(1).isolate().heap().stats().gc_count,
            gc1_before)
      << "collecting isolate 0 never pauses isolate 1 (§2.2)";

  // Mirrors survive their isolate's collection (registry roots).
  EXPECT_EQ(app_.untrusted_context()
                .invoke(a1.as_ref(), "getBalance", {})
                .as_i32(),
            2);
}

TEST_F(MultiIsolateTest, PlainNewTargetsIsolateZero) {
  auto& u = app_.untrusted_context();
  const Value p = u.construct("Account", {Value("x"), Value(std::int32_t{7})});
  EXPECT_EQ(app_.rmi().trusted_registry(0).size(), 1u);
  EXPECT_EQ(u.invoke(p.as_ref(), "getBalance", {}).as_i32(), 7);
}

TEST_F(MultiIsolateTest, DefaultIsolateCountValidated) {
  EXPECT_THROW(core::MultiIsolateApp(apps::build_bank_app(), 0), Error);
  EXPECT_THROW(app_.construct_in(9, "Account", {}), RuntimeFault);
  EXPECT_THROW(app_.trusted_context(9), RuntimeFault);
}

TEST_F(MultiIsolateTest, CrossIsolateProxyPassingRejected) {
  auto& u = app_.untrusted_context();
  const Value reg0 = app_.construct_in(0, "AccountRegistry", {});
  const Value acct1 = app_.construct_in(
      1, "Account", {Value("other"), Value(std::int32_t{1})});
  // A proxy of isolate 1's Account cannot flow into isolate 0's registry.
  EXPECT_THROW(u.invoke(reg0.as_ref(), "addAccount", {acct1}), SecurityFault);
  // Same-isolate passing works.
  const Value acct0 = app_.construct_in(
      0, "Account", {Value("own"), Value(std::int32_t{2})});
  u.invoke(reg0.as_ref(), "addAccount", {acct0});
  EXPECT_EQ(u.invoke(reg0.as_ref(), "count", {}).as_i32(), 1);
}

TEST_F(MultiIsolateTest, GcEvictionRoutedPerIsolate) {
  auto& u = app_.untrusted_context();
  {
    std::vector<Value> pool;
    for (int i = 0; i < 20; ++i) {
      pool.push_back(app_.construct_in(
          i % 3, "Account", {Value("p"), Value(std::int32_t{i})}));
    }
  }
  const Value keeper = app_.construct_in(
      1, "Account", {Value("keeper"), Value(std::int32_t{42})});

  u.isolate().heap().collect();
  app_.rmi().force_gc_scan();
  EXPECT_EQ(app_.rmi().trusted_registry(0).size(), 0u);
  EXPECT_EQ(app_.rmi().trusted_registry(1).size(), 1u) << "keeper survives";
  EXPECT_EQ(app_.rmi().trusted_registry(2).size(), 0u);
  EXPECT_EQ(u.invoke(keeper.as_ref(), "getBalance", {}).as_i32(), 42);
}

TEST_F(MultiIsolateTest, TrustedToUntrustedDirectionWorksPerIsolate) {
  // Each isolate's trusted code can reach out: Vault (trusted) builds an
  // untrusted Logger through the shared untrusted runtime.
  core::AppConfig config;
  config.extra_entry_points = {{"Vault", model::kConstructorName}};
  core::MultiIsolateApp app(apps::build_bank_app(/*with_audit=*/true), 2,
                            config);
  auto& u = app.untrusted_context();
  const Value v0 = app.construct_in(0, "Vault", {});
  const Value v1 = app.construct_in(1, "Vault", {});
  u.invoke(v0.as_ref(), "audit", {Value("a")});
  u.invoke(v1.as_ref(), "audit", {Value("b")});
  u.invoke(v1.as_ref(), "audit", {Value("c")});
  EXPECT_EQ(u.invoke(v0.as_ref(), "auditCount", {}).as_i32(), 1);
  EXPECT_EQ(u.invoke(v1.as_ref(), "auditCount", {}).as_i32(), 2);
  EXPECT_EQ(app.rmi().untrusted_registry().size(), 2u)
      << "one Logger mirror per Vault";
}

// A trusted Sink that keeps whatever it is given, and a neutral Node whose
// one field can close a cycle.
model::AppModel build_node_app() {
  model::AppModel app;
  auto& node = app.add_class("Node", model::Annotation::kNeutral);
  node.add_field("next", /*is_private=*/false);
  node.add_constructor(0).body_native(
      [](model::NativeCall&) { return Value(); });
  auto& sink = app.add_class("Sink", model::Annotation::kTrusted);
  sink.add_field("kept");
  sink.add_constructor(0).body_native(
      [](model::NativeCall&) { return Value(); });
  sink.add_method("take", 1).body_native([](model::NativeCall& call) {
    call.isolate.set_field(call.self, 0, call.args[0]);
    return Value();
  });
  app.add_class("Main", model::Annotation::kUntrusted)
      .add_static_method("main", 0)
      .body(model::IrBuilder().ret_void().build());
  app.set_main_class("Main");
  return app;
}

TEST_F(MultiIsolateTest, NeutralGraphDepthIsBoundedOnAddressedFrames) {
  core::AppConfig config;
  config.extra_entry_points = {{"Sink", model::kConstructorName},
                               {"Sink", "take"},
                               {"Node", model::kConstructorName}};
  core::MultiIsolateApp app(build_node_app(), 2, config);
  auto& u = app.untrusted_context();
  const Value sink = app.construct_in(1, "Sink", {});

  // A cyclic neutral graph ends in a typed fault on the encoding side
  // instead of recursing until the stack overflows.
  const Value a = u.construct("Node", {});
  const Value b = u.construct("Node", {});
  u.isolate().set_field(a.as_ref(), 0, b);
  u.isolate().set_field(b.as_ref(), 0, a);
  try {
    u.invoke(sink.as_ref(), "take", {a});
    FAIL() << "a cyclic graph must not serialize";
  } catch (const RuntimeFault& f) {
    EXPECT_NE(std::string(f.what()).find("too deep"), std::string::npos)
        << f.what();
  }

  // A hostile frame nesting 100 neutral objects ends in a typed fault on
  // the decoding side, inside the enclave.
  ByteBuffer frame;
  frame.put_u32(1);
  frame.put_u32(0xffffffffu);
  frame.put_i64(u.isolate().get_field(sink.as_ref(), 0).as_i64());
  frame.put_varint(1);
  for (int i = 0; i < 100; ++i) {
    frame.put_u8(static_cast<std::uint8_t>(rmi::WireTag::kNeutralObject));
    frame.put_string("Node");
    frame.put_varint(1);
  }
  rmi::encode_primitive(frame, Value(std::int32_t{0}));
  ByteBuffer response;
  const sgx::CallId take =
      app.bridge().ecall_id(xform::transition_name("Sink", "take", true));
  try {
    app.bridge().ecall(take, frame, response);
    FAIL() << "a 100-deep frame must be rejected";
  } catch (const RuntimeFault& f) {
    EXPECT_NE(std::string(f.what()).find("too deep"), std::string::npos)
        << f.what();
  }

  // A shallow graph still crosses, and the isolate keeps serving.
  u.isolate().set_field(b.as_ref(), 0, Value());
  u.invoke(sink.as_ref(), "take", {a});
}

TEST_F(MultiIsolateTest, MixedCallSequenceChargesPinnedCycles) {
  // End-to-end cycle pin of the multi-isolate path, the counterpart of
  // ProxyRuntimeTest.MixedCallSequenceChargesPinnedCycles: 16 isolates,
  // addressed construction, i32/string/list arguments, annotated objects
  // crossing both ways, an explicit batch with one in-band fault, both
  // fences, a restart and the GC helpers. Any change is a model change.
  constexpr std::uint32_t kIsolates = 16;
  core::AppConfig config;
  config.extra_entry_points = {{"Vault", model::kConstructorName}};
  core::MultiIsolateApp app(apps::build_bank_app(/*with_audit=*/true),
                            kIsolates, config);
  auto& u = app.untrusted_context();
  const auto i32 = [](int v) { return Value(static_cast<std::int32_t>(v)); };

  std::vector<Value> accounts;
  for (std::uint32_t k = 0; k < kIsolates; ++k) {
    accounts.push_back(app.construct_in(
        k, "Account", {Value("tenant" + std::to_string(k)), i32(100 + k)}));
  }
  const Value plain = u.construct("Account", {Value("plain"), i32(7)});
  for (std::uint32_t k = 0; k < kIsolates; ++k) {
    u.invoke(accounts[k].as_ref(), "updateBalance", {i32(k)});
    EXPECT_EQ(u.invoke(accounts[k].as_ref(), "getBalance", {}).as_i32(),
              static_cast<std::int32_t>(100 + 2 * k));
  }
  EXPECT_EQ(u.invoke(accounts[9].as_ref(), "getOwner", {}).as_string(),
            "tenant9");

  // A proxy going home inside its own isolate (kRefOwnedByDecoder), a
  // list argument, and a concrete untrusted object passed out
  // (kRefOwnedByEncoder: the enclave materializes a Logger proxy).
  const Value reg = app.construct_in(4, "AccountRegistry", {});
  u.invoke(reg.as_ref(), "addAccount", {accounts[4]});
  EXPECT_EQ(u.invoke(reg.as_ref(), "totalBalance", {}).as_i32(), 108);
  const Value bag = app.construct_in(6, "AccountRegistry", {});
  u.invoke(bag.as_ref(), "addAccount",
           {Value(rt::ValueList{i32(1), Value("two"), accounts[6]})});
  const Value logger = u.construct("Logger", {});
  u.invoke(bag.as_ref(), "addAccount", {logger});
  EXPECT_EQ(u.invoke(bag.as_ref(), "count", {}).as_i32(), 2);
  EXPECT_THROW(u.invoke(reg.as_ref(), "addAccount", {accounts[5]}),
               SecurityFault);

  // Trusted code calling back out: each Vault builds an untrusted Logger
  // from inside its isolate and drives it through ocalls.
  std::vector<Value> vaults;
  for (std::uint32_t k : {2u, 11u, 15u}) {
    vaults.push_back(app.construct_in(k, "Vault", {}));
    u.invoke(vaults.back().as_ref(), "audit", {Value("k" + std::to_string(k))});
  }
  u.invoke(vaults[1].as_ref(), "audit", {Value("again")});
  EXPECT_EQ(u.invoke(vaults[1].as_ref(), "auditCount", {}).as_i32(), 2);

  // Golden addressed frame: getBalance on isolate 5 is the target id, the
  // untrusted caller id, the proxy hash and an empty argument list.
  const std::int64_t hash5 =
      u.isolate().get_field(accounts[5].as_ref(), 0).as_i64();
  ByteBuffer frame;
  frame.put_u32(5);
  frame.put_u32(0xffffffffu);
  frame.put_i64(hash5);
  frame.put_varint(0);
  const auto hex = [](const std::uint8_t* p, std::size_t n) {
    static const char* digits = "0123456789abcdef";
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
      out += digits[p[i] >> 4];
      out += digits[p[i] & 15];
    }
    return out;
  };
  EXPECT_EQ(hex(frame.data(), frame.size()),
            "05000000ffffffff9f1083880e4d30a100");
  const std::string relay =
      xform::transition_name("Account", "getBalance", true);
  const std::uint64_t relay_bytes_before =
      app.bridge().stats().per_call.at(relay).bytes_in;
  u.invoke(accounts[5].as_ref(), "getBalance", {});
  EXPECT_EQ(app.bridge().stats().per_call.at(relay).bytes_in -
                relay_bytes_before,
            frame.size());
  ByteBuffer response;
  app.bridge().ecall(app.bridge().ecall_id(relay), frame, response);
  EXPECT_EQ(hex(response.data(), response.size()), "026e000000")
      << "the handler routes by the header to isolate 5's mirror";

  // An explicit batch of three on one isolate, the middle call faulting
  // in-band (an argument missing). The fault's message travels on the
  // wire, so it must not name a source file: its length is pinned below.
  const model::ClassDecl& acct_cls = u.class_of(accounts[3].as_ref());
  std::vector<rmi::ProxyRuntime::BatchCall> calls(3);
  for (auto& c : calls) c.proxy = accounts[3].as_ref();
  calls[0].stub = acct_cls.find_method("updateBalance");
  calls[0].args = {i32(50)};
  calls[1].stub = acct_cls.find_method("updateBalance");
  calls[2].stub = acct_cls.find_method("getBalance");
  const auto outcomes = app.rmi().invoke_batch(calls);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].error,
            "method Account.updateBalance expects 1 args, got 0");
  ASSERT_TRUE(outcomes[2].ok);
  EXPECT_EQ(outcomes[2].value.as_i32(), 156);

  // Authority fence: every minted proxy goes stale, fresh mints work.
  app.rmi().fence_proxies();
  EXPECT_THROW(u.invoke(accounts[1].as_ref(), "getBalance", {}),
               rmi::StaleProxyError);
  EXPECT_THROW(u.invoke(plain.as_ref(), "getBalance", {}),
               rmi::StaleProxyError);
  const Value after_fence =
      app.construct_in(12, "Account", {Value("fresh"), i32(3)});
  EXPECT_EQ(u.invoke(after_fence.as_ref(), "getBalance", {}).as_i32(), 3);

  // Enclave loss and restart: the old heaps are gone.
  app.enclave().mark_lost();
  app.restart_enclave();
  EXPECT_THROW(u.invoke(after_fence.as_ref(), "getBalance", {}),
               rmi::StaleProxyError);
  std::vector<Value> reborn;
  for (std::uint32_t k = 0; k < kIsolates; k += 3) {
    reborn.push_back(
        app.construct_in(k, "Account", {Value("r"), i32(static_cast<int>(k))}));
  }
  {
    const Value vault = app.construct_in(7, "Vault", {});
    u.invoke(vault.as_ref(), "audit", {Value("reborn")});
  }
  for (std::uint32_t k = 0; k < 5; ++k) {
    reborn.push_back(app.construct_in(k + 8, "Account",
                                      {Value("drop"), i32(1)}));
  }

  // GC helpers: the untrusted helper evicts the dropped accounts and the
  // vault; once isolate 7 collects, its Logger proxy dies with the evicted
  // Vault and the in-enclave helper evicts the Logger mirror outward.
  reborn.resize(6);
  accounts.clear();
  vaults.clear();
  u.isolate().heap().collect();
  app.rmi().force_gc_scan();
  for (std::uint32_t k = 0; k < kIsolates; ++k) app.collect_isolate(k);
  app.rmi().force_gc_scan();

  EXPECT_EQ(app.env().clock.now(), 143864874u);
  const sgx::BridgeStats& bridge = app.bridge().stats();
  EXPECT_EQ(bridge.ecalls, 99u);
  EXPECT_EQ(bridge.ocalls, 11u);
  EXPECT_EQ(bridge.bytes_in, 2238u);
  EXPECT_EQ(bridge.bytes_out, 484u);
  std::map<std::string, std::uint64_t> per_call;
  for (const auto& [name, st] : bridge.per_call) {
    if (st.calls != 0) per_call[name] = st.calls;
  }
  const std::map<std::string, std::uint64_t> expected_calls = {
      {"ecall_multi_gc_evict", 15},
      {"ecall_multi_gc_scan", 1},
      {"ecall_multi_rmi_batch", 1},
      {"ecall_relay_AccountRegistry_addAccount", 3},
      {"ecall_relay_AccountRegistry_count", 1},
      {"ecall_relay_AccountRegistry_init", 2},
      {"ecall_relay_AccountRegistry_totalBalance", 1},
      {"ecall_relay_Account_getBalance", 19},
      {"ecall_relay_Account_getOwner", 1},
      {"ecall_relay_Account_init", 29},
      {"ecall_relay_Account_updateBalance", 16},
      {"ecall_relay_Vault_audit", 5},
      {"ecall_relay_Vault_auditCount", 1},
      {"ecall_relay_Vault_init", 4},
      {"ocall_multi_gc_evict", 1},
      {"ocall_relay_Logger_init", 4},
      {"ocall_relay_Logger_lineCount", 1},
      {"ocall_relay_Logger_log", 5},
  };
  EXPECT_EQ(per_call, expected_calls);
  std::vector<std::size_t> registries;
  for (std::uint32_t k = 0; k < kIsolates; ++k) {
    registries.push_back(app.rmi().trusted_registry(k).size());
  }
  EXPECT_EQ(registries, (std::vector<std::size_t>{1, 0, 0, 1, 0, 0, 1, 0, 0,
                                                  1, 0, 0, 1, 0, 0, 1}));
  EXPECT_EQ(app.rmi().untrusted_registry().size(), 0u);
}

}  // namespace
}  // namespace msv
