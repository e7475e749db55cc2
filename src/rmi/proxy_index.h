// The live local proxies of one runtime, by hash (§5.2, §5.5).
//
// Every proxy a runtime creates, or materializes for a reference that came
// over the wire, is recorded in its isolate's weak table with its hash as
// the payload. ProxyIndex keeps a hash -> weak-slot cache next to it, so
// materializing a reference reuses the live proxy for that hash (one proxy
// per mirror and runtime, or mirror eviction would fire while a twin is
// still alive), and runs the GC helper's sweep over the table.
//
// The cache always equals "each hash -> the newest unswept slot carrying
// it", which is what rebuilding it from scratch after every sweep gave.
// Weak slots are stable across sweeps, so a sweep only drops the entries
// of the proxies it reports dead; the cache is rebuilt only after the
// weak table compacts, or while two unswept live slots share a hash (a
// hash collision) and dropping the newer one must fall back to the older.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "runtime/weakref.h"
#include "support/error.h"

namespace msv::rmi {

class ProxyIndex {
 public:
  explicit ProxyIndex(rt::WeakRefTable& weak)
      : weak_(weak), generation_(weak.generation()) {}

  // Records the proxy at `addr`, just created with `hash`.
  void add(rt::ObjAddr addr, std::int64_t hash);

  // The live proxy for `hash`, or kNullAddr when there is none.
  rt::ObjAddr find_live(std::int64_t hash) const {
    MSV_CHECK_MSG(weak_.generation() == generation_,
                  "weak table compacted behind the proxy index");
    const auto it = slot_by_hash_.find(hash);
    if (it == slot_by_hash_.end()) return rt::kNullAddr;
    const rt::WeakEntry& e = weak_.entry(it->second);
    if (e.payload != static_cast<std::uint64_t>(hash)) return rt::kNullAddr;
    return e.target;
  }

  // GC-helper sweep: calls `on_dead(hash)` for every proxy the collector
  // cleared, in creation order, and forgets it.
  template <typename Fn>
  void sweep(Fn&& on_dead) {
    const bool compacted = weak_.sweep_cleared([&](const rt::WeakEntry& e) {
      const auto hash = static_cast<std::int64_t>(e.payload);
      on_dead(hash);
      const auto it = slot_by_hash_.find(hash);
      if (it != slot_by_hash_.end() && &weak_.entry(it->second) == &e) {
        slot_by_hash_.erase(it);
      }
    });
    if (compacted || shadowed_) rebuild();
  }

  // Forgets every proxy and empties the weak table (enclave restart: the
  // proxies died with the heap).
  void clear();

 private:
  void rebuild();

  rt::WeakRefTable& weak_;
  std::unordered_map<std::int64_t, std::uint32_t> slot_by_hash_;
  std::uint64_t generation_;  // weak_.generation() the cache was built for
  bool shadowed_ = false;     // an older live slot shares a cached hash
};

}  // namespace msv::rmi
