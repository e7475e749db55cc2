// The proxy/mirror RMI machinery (§5.2) and the GC helpers (§5.5).
//
// ProxyRuntime connects the untrusted ExecContext to one or more trusted
// ExecContexts (isolates of the trusted native image) through the
// transition bridge:
//
//   * `new Proxy(args)` on one side creates the local proxy object (hash
//     field only), serializes the constructor arguments, transitions to
//     the relay entry point on the other side, constructs the mirror there
//     and registers it (hash -> strong ref) in that side's mirror-proxy
//     registry;
//   * `proxy.m(args)` transitions to the relay of m, which looks the
//     mirror up by hash and invokes the concrete method;
//   * annotated objects passed as arguments or returned travel as hashes
//     (kRefOwnedByEncoder/kRefOwnedByDecoder, see wire.h); proxies are
//     materialized on demand and cached per hash so each object has at
//     most one live proxy per runtime;
//   * neutral values are serialized and copied.
//
// GC synchronisation: every proxy is also recorded in its isolate's weak
// reference list together with its hash. The GC helpers scan their list
// for cleared entries and evict the corresponding mirrors in the opposite
// registry — the untrusted helper via an ecall, the in-enclave helper via
// an ocall.
//
// The runtime has one of two forms, fixed by the constructor used
// (DESIGN.md §7 lists every difference):
//
//   * two-sided (PartitionedApp): the paper's runtime, one trusted
//     isolate. Frames carry no isolate address, and the helpers run
//     periodically (default: every simulated second) from pump_gc(), which
//     the runtime invokes before every top-level transition.
//   * addressed (MultiIsolateApp): the paper's second future-work item
//     (§7), N >= 1 trusted isolates running the same trusted image in one
//     enclave — separate heaps, independently collected (§2.2) — paired
//     with the single untrusted runtime. Every relay and batch frame
//     starts with the target and caller isolate ids, exactly the
//     `Isolate ctx` parameter the paper's relay methods already take
//     (Listing 4), and each untrusted proxy stays routed to the isolate
//     that owns its mirror.
//     Proxies are epoch-fenced across enclave restarts and replica
//     promotions (StaleProxyError), and the helpers run only on
//     force_gc_scan(). Passing a proxy of isolate A's object into a call
//     on isolate B (a trusted-to-trusted edge) is rejected: full
//     cross-isolate pairs would need trusted-to-trusted transitions the
//     paper also leaves as future work.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/exec_context.h"
#include "interp/remote.h"
#include "rmi/batch.h"
#include "rmi/hasher.h"
#include "rmi/proxy_index.h"
#include "rmi/registry.h"
#include "rmi/wire.h"
#include "sgx/bridge.h"

namespace msv::rmi {

// Thrown when a proxy minted against a previous enclave incarnation is
// invoked after a restart (or after fence_proxies): its mirror died with
// the old enclave heap, so the call can never be routed. Typed so the
// serving layer can rebuild the session instead of treating it as a bug.
class StaleProxyError : public RuntimeFault {
 public:
  explicit StaleProxyError(const std::string& what) : RuntimeFault(what) {}
};

struct GcHelperStats {
  std::uint64_t scans = 0;
  std::uint64_t proxies_collected = 0;  // cleared weak entries processed
  std::uint64_t eviction_calls = 0;     // cross-runtime eviction batches
};

struct RmiStats {
  std::uint64_t proxies_created = 0;
  std::uint64_t proxies_materialized = 0;  // from received hashes
  std::uint64_t mirrors_registered = 0;
  // Logical remote calls (every proxy invocation, batched or not).
  std::uint64_t remote_invocations = 0;
  // Calls whose request marshalling stayed entirely on the primitive
  // fixed-layout path (no ref-encoder indirection).
  std::uint64_t fast_path_calls = 0;
  // RMI-layer bridge round trips. A batched flush dispatches N logical
  // calls over ONE transition, so under batching this grows slower than
  // remote_invocations — the per-call accounting the batching layer must
  // keep honest (a transition != a call once batches exist).
  std::uint64_t transitions = 0;
  // Logical calls that travelled inside a batch frame, and the number of
  // flushes that dispatched at least one pending call.
  std::uint64_t batched_calls = 0;
  std::uint64_t batch_flushes = 0;
};

class ProxyRuntime final : public interp::RemoteInvoker,
                           public BatchFlushSink {
 public:
  struct Config {
    HashScheme hash_scheme = HashScheme::kMd5;
    // §5.5: the helper threads scan "periodically (e.g., every second)".
    double gc_scan_period_seconds = 1.0;
    // Pump the GC helpers automatically before top-level transitions.
    bool gc_auto_pump = true;
    // Depth limit for serialized neutral object graphs.
    std::uint32_t max_serialization_depth = 64;
    // Cross-boundary call batching (DESIGN.md §13): invoke_proxy_async
    // packs calls into one wire frame dispatched by a single transition.
    // Off by default — the sync API is byte-identical either way; only
    // the async API changes behaviour.
    bool batching = false;
    // Flush bounds of the pending batch (calls / marshalled bytes).
    std::uint32_t max_batch_calls = 64;
    std::size_t max_batch_bytes = 64 * 1024;
  };

  // Two-sided form: one trusted isolate.
  ProxyRuntime(Env& env, sgx::TransitionBridge& bridge,
               interp::ExecContext& trusted_ctx,
               interp::ExecContext& untrusted_ctx, Config config);
  // Default configuration.
  ProxyRuntime(Env& env, sgx::TransitionBridge& bridge,
               interp::ExecContext& trusted_ctx,
               interp::ExecContext& untrusted_ctx);
  // Addressed form: `trusted` contexts all execute the same trusted image
  // in their own isolates (isolate id = index). The GC helpers never
  // auto-pump and async batching stays off: config.gc_auto_pump and
  // config.batching are ignored.
  ProxyRuntime(Env& env, sgx::TransitionBridge& bridge,
               const std::vector<interp::ExecContext*>& trusted,
               interp::ExecContext& untrusted_ctx, Config config);
  ~ProxyRuntime() override;

  // Registers the relay handlers (every kRelay method of both images) and
  // the GC eviction transitions on the bridge. Call exactly once.
  void register_handlers();

  std::uint32_t isolate_count() const {
    return static_cast<std::uint32_t>(trusted_.size());
  }

  // Constructs a proxy in the untrusted runtime whose mirror lives in
  // trusted isolate `isolate_index` (plain `new` targets isolate 0).
  rt::Value construct_in(std::uint32_t isolate_index, const std::string& cls,
                         std::vector<rt::Value> args);

  // ---- RemoteInvoker ----
  rt::Value construct_proxy(interp::ExecContext& caller,
                            const model::ClassDecl& proxy_cls,
                            std::vector<rt::Value>& args) override;
  rt::Value invoke_proxy(interp::ExecContext& caller, const rt::GcRef& proxy,
                         const model::ClassDecl& proxy_cls,
                         const model::MethodDecl& stub,
                         std::vector<rt::Value>& args) override;

  // ---- Batched & async RMI (DESIGN.md §13) ----
  // Enables (or disables) call batching at run time. Flushes any pending
  // batch first, so toggling never reorders calls.
  void set_batching(bool enabled);
  // Enqueues one invocation into the pending batch and returns a future
  // for its result. Marshalling (and its cycle charge) happens now; the
  // transition is deferred to the flush. Strict program order per
  // (caller task, direction) is preserved: the batch flushes before any
  // synchronous call, on a direction or caller-side change, when the
  // size bounds fill, at every scheduler suspension point, and on the
  // first get(). Calls with non-primitive arguments (which may alias
  // proxy state earlier batched calls mutate) conservatively flush and
  // run synchronously — their future returns already resolved.
  RmiFuture invoke_proxy_async(interp::ExecContext& caller,
                               const rt::GcRef& proxy,
                               const model::ClassDecl& proxy_cls,
                               const model::MethodDecl& stub,
                               std::vector<rt::Value>& args);
  // Dispatches the pending batch (one bridge transition for N calls);
  // no-op when nothing is pending. Whole-batch failures (enclave loss
  // mid-batch) resolve every pending future with the error — surfaced at
  // each get(), retried by the serving layer's existing backoff ladder.
  void flush_batches() override;
  std::size_t pending_batch_calls() const { return pending_calls_.size(); }

  // One packed invocation of an explicit batch: an instance call on an
  // untrusted-side proxy whose mirror lives in a trusted isolate.
  struct BatchCall {
    rt::GcRef proxy;
    const model::MethodDecl* stub = nullptr;
    std::vector<rt::Value> args;
  };
  // Per-call outcome. Application faults inside one entry do not abort
  // the rest of the batch; they come back in-band so the caller (the
  // serving layer's coalescer) can fail just that request.
  struct BatchOutcome {
    bool ok = false;
    rt::Value value;
    std::string error;
  };
  // Addressed form: packs `calls` into one "ecall_multi_rmi_batch"
  // transition (the two-sided form batches through invoke_proxy_async
  // instead). All proxies must be owned by the same trusted isolate, and
  // every proxy is epoch-fenced *up front*: a stale proxy fails the whole
  // batch with StaleProxyError before any transition happens, so the
  // serving layer's recovery ladder retries the batch as a unit.
  // Transition-level faults (enclave lost mid-batch) likewise abort the
  // whole batch by throwing.
  std::vector<BatchOutcome> invoke_batch(const std::vector<BatchCall>& calls);

  // ---- GC helpers (§5.5) ----
  // Runs any helper whose scan period elapsed (two-sided form; a no-op in
  // the addressed form). Only effective at top level (untrusted side);
  // nested invocations are skipped, like a helper thread that cannot
  // preempt an enclave call it depends on.
  void pump_gc();
  // Makes every helper scan immediately and evicts dead mirrors across all
  // pairs (tests, Fig. 5b sampling, the serving layer's GC gates).
  void force_gc_scan();

  // ---- Fencing (addressed form, DESIGN.md §12 and §14) ----
  // Authority fence. Marks every *currently minted* untrusted-side proxy
  // stale without restarting the enclave: the fleet calls this on a
  // shard's demoted runtime when a replica is promoted, so requests still
  // holding old sessions fault with StaleProxyError instead of
  // double-executing against an enclave that is no longer the shard's
  // authority. Proxies minted afterwards record the live epoch.
  void fence_proxies();
  // Enclave-restart fence. The trusted heaps are gone: drops every
  // trusted-side registry/proxy table and the untrusted-side mirror
  // registry (whose in-enclave proxies died with the heap). Untrusted
  // proxies minted against the old incarnation survive as objects, but
  // their next invocation throws StaleProxyError — the epoch recorded at
  // mint no longer matches Enclave::epoch().
  void on_enclave_restart();

  // ---- Introspection for tests and benchmarks ----
  // registry/live_proxy_count/gc_stats(kTrusted) name trusted isolate 0.
  const MirrorProxyRegistry& registry(Side side) const;
  const MirrorProxyRegistry& trusted_registry(std::uint32_t index) const;
  const MirrorProxyRegistry& untrusted_registry() const {
    return untrusted_.registry;
  }
  std::size_t live_proxy_count(Side side) const;
  const GcHelperStats& gc_stats(Side side) const;
  const RmiStats& stats() const { return stats_; }

 private:
  // Isolate id of the (single) untrusted runtime; trusted isolates are
  // numbered from 0.
  static constexpr std::uint32_t kUntrustedId = 0xffffffffu;
  // Sentinel epoch marking a proxy fenced by fence_proxies(). Real enclave
  // epochs start at 1, so 0 can never match.
  static constexpr std::uint64_t kFencedEpoch = 0;

  struct SideState {
    // The hasher domain is the isolate's name ("trusted-isolate-k" /
    // "untrusted-isolate" under MultiIsolateApp).
    SideState(interp::ExecContext& c, HashScheme scheme, std::uint32_t i)
        : ctx(c),
          registry(c.isolate()),
          hasher(scheme, c.isolate().name()),
          proxies(c.isolate().weak_refs()),
          id(i) {}

    interp::ExecContext& ctx;
    MirrorProxyRegistry registry;
    ProxyHasher hasher;
    // The local proxies by hash, over the isolate's weak table.
    ProxyIndex proxies;
    Cycles next_scan = 0;
    GcHelperStats gc_stats;
    std::uint32_t id;  // wire isolate id
  };

  // Addressed form: where an untrusted-side proxy's mirror lives, and the
  // enclave epoch it was minted under.
  struct Route {
    std::uint32_t owner;
    std::uint64_t epoch;
  };

  const SideState& state(Side side) const;
  SideState& state_of(interp::ExecContext& ctx);
  SideState& state_by_id(std::uint32_t id);

  Side side_of(const SideState& s) const {
    return s.ctx.isolate().trusted() ? Side::kTrusted : Side::kUntrusted;
  }

  // Addressed form: the trusted isolate owning untrusted-side proxy
  // `hash`. Throws StaleProxyError when the proxy was fenced or minted
  // under an earlier enclave epoch.
  std::uint32_t route_of(std::int64_t hash);

  // Creates (or reuses) the local proxy object for `hash` of class
  // `class_name` in `s`; `owner` is the isolate that owns the mirror.
  rt::GcRef materialize_proxy(SideState& s, std::int64_t hash,
                              const std::string& class_name,
                              std::uint32_t owner);

  // `peer` is the isolate on the other end of the call: proxies passed to
  // it must be routed there, and proxies materialized from it are routed
  // to it (addressed form only).
  RefEncoder make_ref_encoder(SideState& s, std::uint32_t peer,
                              std::uint32_t depth = 0);
  RefDecoder make_ref_decoder(SideState& s, std::uint32_t peer,
                              std::uint32_t depth = 0);

  // Shared body of construct_proxy and construct_in.
  rt::Value construct(SideState& from, std::uint32_t target,
                      const model::ClassDecl& proxy_cls,
                      std::vector<rt::Value>& args);
  // The other end of a call from `from` that no proxy routes: trusted
  // isolate 0 for the untrusted side, the untrusted runtime for a trusted
  // isolate.
  std::uint32_t peer_of(const SideState& from) const {
    return &from == &untrusted_ ? 0 : kUntrustedId;
  }
  // Addressed form: the 8-byte frame header.
  void put_address(ByteBuffer& buf, std::uint32_t target,
                   const SideState& from) const {
    buf.put_u32(target);
    buf.put_u32(from.id);
  }

  // Per-stub dispatch plan, resolved once per proxy-stub MethodDecl: the
  // interned bridge call ID plus the primitive-signature flag. Subsequent
  // invocations dispatch by ID through the bridge's flat tables instead of
  // re-hashing the relay name.
  struct RelayPlan {
    sgx::CallId id;
    bool via_ecall;
    bool primitive;  // declared all-primitive signature (app model hint)
    // Caller-side span name, interned once here so tracing adds no
    // per-call string work: "rmi.invoke <relay>" in the two-sided form,
    // "rmi.invoke"/"rmi.construct" in the addressed form.
    std::uint32_t span_name = 0;
  };
  const RelayPlan& plan_for(const model::MethodDecl& stub);

  // Everything one registered relay handler needs, resolved at
  // registration. The bridge closure captures a single pointer to its
  // site, so the std::function fits its small-object buffer (a fat
  // capture would heap-allocate and indirect every dispatch).
  struct RelaySite {
    ProxyRuntime* rt;
    // The image's side. In the addressed form the frame names the trusted
    // isolate, and this is isolate 0.
    SideState* callee;
    const model::ClassDecl* cls;
    const model::MethodDecl* relay;
    const model::MethodDecl* target;  // null for constructor relays
    interp::ExecContext::QuickInfo quick;
  };

  // Appends self-hash + args to `buf` (arena-backed; it may already hold
  // the frame address), taking the fixed-layout shortcut per primitive
  // argument. Byte-for-byte identical to the generic encoder; charges
  // charge_serialize for the whole buffer.
  void encode_call_into(ByteBuffer& buf, SideState& caller, std::uint32_t peer,
                        std::int64_t self_hash,
                        const std::vector<rt::Value>& args);
  // ID dispatch of one relay call, response written into `response`.
  void transition(const RelayPlan& plan, const ByteBuffer& payload,
                  ByteBuffer& response);

  // Bridge handler body for one relay method of `site`, run in `callee`
  // for a call from isolate `peer`; `in` is positioned at the self hash.
  // Writes the marshalled result into `out`. Batched dispatch passes
  // charge_attach=false: the batch handler charges the isolate attach
  // once for the whole frame — the cost batching exists to amortize.
  void dispatch_relay(SideState& callee, std::uint32_t peer,
                      const RelaySite& site, ByteReader& in, ByteBuffer& out,
                      bool charge_attach = true);
  // Addressed form: reads the frame address, then dispatches.
  void dispatch_addressed(const RelaySite& site, ByteReader& in,
                          ByteBuffer& out);
  // The isolate attach of a relay (or batch) dispatch. The two-sided form
  // skips it on switchless calls, whose persistent workers stay attached;
  // the addressed form always charges it.
  void charge_attach(const SideState& callee);

  // Callee-side body of the batch transition: bounded-decodes the frame,
  // dispatches every entry through its RelaySite (isolate attach charged
  // once), packs per-entry results/errors into the response frame.
  void dispatch_batch(SideState& callee, std::uint32_t peer, ByteReader& in,
                      ByteBuffer& out);
  // Caller side of a batch frame: decodes one entry's result value.
  rt::Value decode_result(SideState& from, std::uint32_t peer,
                          ByteReader& in, std::size_t bytes);

  // One enqueued-but-not-yet-dispatched batched call. The bare payload
  // (identical bytes to the unbatched wire form) lives at
  // [offset, offset + size) of batch_buf_.
  struct PendingCall {
    const RelayPlan* plan;
    std::shared_ptr<RmiFutureState> state;
    std::size_t offset;
    std::size_t size;
  };
  void install_suspend_hook();
  void do_flush();

  // Charges the scan of `local`'s weak list, then sweeps it.
  std::vector<std::int64_t> collect_dead_proxies(SideState& local);
  // Sweeps `local`'s weak list; returns the hashes of collected proxies and
  // drops them from the list and the proxy cache.
  std::vector<std::int64_t> sweep_dead_proxies(SideState& local);
  // Evicts the mirrors of `dead` on the other side; from the untrusted
  // side of the addressed form, in trusted isolate `owner`.
  void evict_remote(SideState& local, const std::vector<std::int64_t>& dead,
                    std::uint32_t owner = 0);
  // force_gc_scan of the addressed form.
  void scan_addressed();

  Env& env_;
  sgx::TransitionBridge& bridge_;
  Config config_;
  // The form, fixed at construction: frames carry the isolate address.
  const bool addressed_;
  // Trusted isolates by id (deque: the states are not movable).
  std::deque<SideState> trusted_;
  SideState untrusted_;
  // Addressed form: untrusted-side proxy hash -> owning isolate and epoch.
  std::unordered_map<std::int64_t, Route> routes_;
  Cycles scan_period_;
  bool pumping_ = false;
  bool handlers_registered_ = false;
  // GC-helper transition IDs, interned once at registration.
  sgx::CallId gc_evict_ecall_id_ = sgx::kNoCallId;
  sgx::CallId gc_evict_ocall_id_ = sgx::kNoCallId;
  sgx::CallId gc_scan_ecall_id_ = sgx::kNoCallId;
  RmiStats stats_;
  // Request/response wire buffers, reused across calls (nested chains pull
  // additional buffers; steady state allocates nothing).
  BufferArena arena_;
  std::unordered_map<const model::MethodDecl*, RelayPlan> plans_;
  // Monomorphic plan cache: a hot loop invokes one stub repeatedly, so
  // remembering the last resolution skips the map probe entirely.
  const model::MethodDecl* last_plan_stub_ = nullptr;
  const RelayPlan* last_plan_ = nullptr;
  // Relay dispatch sites (deque: handlers capture stable pointers), plus
  // the CallId index the batch dispatcher routes entries through.
  std::deque<RelaySite> relay_sites_;
  std::unordered_map<sgx::CallId, const RelaySite*> sites_by_id_;

  // ---- Pending batch (one per runtime: one caller side + direction) ----
  std::vector<PendingCall> pending_calls_;
  ByteBuffer batch_buf_;  // concatenated bare payloads; capacity reused
  SideState* pending_from_ = nullptr;
  bool pending_via_ecall_ = false;
  bool flushing_ = false;
  bool hook_installed_ = false;
  BatchLimits batch_limits_;
  sgx::CallId batch_ecall_id_ = sgx::kNoCallId;
  sgx::CallId batch_ocall_id_ = sgx::kNoCallId;

  // Argument-vector pool for relay dispatch (constructor relays consume
  // their vector and simply don't return it).
  std::vector<rt::Value> args_take() {
    if (args_pool_.empty()) return {};
    std::vector<rt::Value> v = std::move(args_pool_.back());
    args_pool_.pop_back();
    return v;
  }
  void args_put(std::vector<rt::Value>&& v) {
    // Clear before pooling: a parked Value would keep its GcRef rooted.
    v.clear();
    if (args_pool_.size() < 16) args_pool_.push_back(std::move(v));
  }
  std::vector<std::vector<rt::Value>> args_pool_;
};

}  // namespace msv::rmi
