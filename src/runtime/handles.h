// GC handles.
//
// The semispace collector moves objects, so C++ code never holds raw heap
// addresses across an allocation. Instead it holds an index into the
// isolate's handle table; the collector updates the table in place. Handle
// table entries are GC roots.
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.h"

namespace msv::rt {

// Heap address: byte offset into the current from-space. 0 is the null
// reference (the first 8 bytes of each semispace are never allocated).
using ObjAddr = std::uint64_t;
constexpr ObjAddr kNullAddr = 0;

class HandleTable {
 public:
  // Creates a root slot holding `addr`; returns its index. Freed slots are
  // reused last-released-first.
  std::uint32_t create(ObjAddr addr) {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      slots_[idx] = addr;
      used_[idx] = 1;
      return idx;
    }
    slots_.push_back(addr);
    used_.push_back(1);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release(std::uint32_t index) {
    MSV_CHECK_MSG(index < slots_.size() && used_[index],
                  "releasing a dead handle");
    used_[index] = 0;
    slots_[index] = kNullAddr;
    free_.push_back(index);
  }

  ObjAddr get(std::uint32_t index) const {
    MSV_CHECK_MSG(index < slots_.size() && used_[index],
                  "reading a dead handle");
    return slots_[index];
  }

  void set(std::uint32_t index, ObjAddr addr) {
    MSV_CHECK_MSG(index < slots_.size() && used_[index],
                  "writing a dead handle");
    slots_[index] = addr;
  }

  std::size_t live() const { return slots_.size() - free_.size(); }

  // Released slots, in the order create() will hand them out again (last
  // element first). Exposed so tests can compare free-list orders.
  const std::vector<std::uint32_t>& free_slots() const { return free_; }

  // Visits every live slot; `fn(ObjAddr&)` may rewrite the address (used by
  // the collector to forward roots).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i]);
    }
  }

 private:
  std::vector<ObjAddr> slots_;
  std::vector<std::uint8_t> used_;  // 1 while the slot is live
  std::vector<std::uint32_t> free_;
};

}  // namespace msv::rt
