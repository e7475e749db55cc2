// Weak references (§5.5).
//
// Montsalvat's GC helper stores, for every proxy object, a weak reference
// and the proxy's hash in a global list. The collector clears a weak entry
// when its referent dies; the helper thread later scans the list for
// cleared entries and evicts the corresponding mirror from the registry in
// the opposite runtime.
//
// Slots are stable: the helper's sweep turns a cleared entry into a
// tombstone in place instead of shifting every later entry down, so an
// index kept by the caller (the RMI layer's hash -> slot cache) stays
// valid across sweeps. New entries always append, so slot order is
// insertion order. The table compacts, preserving that order, only once
// tombstones make up more than half of its slots; generation() tells
// index holders when that happened.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/handles.h"

namespace msv::rt {

struct WeakEntry {
  ObjAddr target = kNullAddr;  // kNullAddr once the referent is collected
  std::uint64_t payload = 0;   // the proxy hash in Montsalvat's usage
  // Distinguishes "cleared" from "never set". A slot whose entry has been
  // swept (a tombstone) is back in the never-set state.
  bool was_set = false;
};

class WeakRefTable {
 public:
  // Registers a weak reference to `addr` carrying `payload`; returns its
  // slot, which stays valid until the next compaction.
  std::uint32_t add(ObjAddr addr, std::uint64_t payload);

  // Entries not yet swept or removed, live and cleared alike (what the GC
  // helper's scan walks and is charged for).
  std::size_t size() const { return size_; }
  // Slots, tombstones included: every index below this is readable.
  std::size_t slot_count() const { return entries_.size(); }
  const WeakEntry& entry(std::uint32_t index) const;

  bool is_cleared(std::uint32_t index) const;
  std::size_t cleared_count() const { return cleared_; }

  // Bumped every time slots move (a compaction or clear()); slot indices
  // taken under an older generation are stale.
  std::uint64_t generation() const { return generation_; }

  // GC-helper sweep: calls `fn(entry)` for every cleared entry in slot
  // (= insertion) order and tombstones it. Compacts afterwards when
  // tombstones exceed half of the slots; returns true if it did.
  template <typename Fn>
  bool sweep_cleared(Fn&& fn) {
    if (cleared_ == 0) return false;
    for (auto& e : entries_) {
      if (e.was_set && e.target == kNullAddr) {
        fn(static_cast<const WeakEntry&>(e));
        e = WeakEntry{};
      }
    }
    tombstones_ += cleared_;
    size_ -= cleared_;
    cleared_ = 0;
    if (tombstones_ * 2 <= entries_.size()) return false;
    compact();
    return true;
  }

  // Removes the entries for which `fn(entry)` returns true and compacts
  // the table (tombstones go too).
  template <typename Fn>
  void remove_if(Fn&& fn) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < entries_.size(); ++r) {
      const WeakEntry& e = entries_[r];
      if (!e.was_set) continue;  // tombstone
      if (fn(e)) {
        if (e.target == kNullAddr) --cleared_;
        --size_;
        continue;
      }
      entries_[w++] = e;
    }
    entries_.resize(w);
    tombstones_ = 0;
    ++generation_;
  }

  // Drops every entry.
  void clear();

  // Collector interface: visits every non-cleared entry so the collector
  // can forward or clear it.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& e : entries_) {
      if (e.target != kNullAddr) {
        fn(e);
        if (e.target == kNullAddr) ++cleared_;
      }
    }
  }

 private:
  void compact();

  std::vector<WeakEntry> entries_;
  std::size_t size_ = 0;        // entries that are not tombstones
  std::size_t cleared_ = 0;     // of those, the ones whose referent died
  std::size_t tombstones_ = 0;  // swept slots awaiting compaction
  std::uint64_t generation_ = 0;
};

}  // namespace msv::rt
