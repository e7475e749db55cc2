#include "runtime/weakref.h"

#include "support/error.h"

namespace msv::rt {

std::uint32_t WeakRefTable::add(ObjAddr addr, std::uint64_t payload) {
  MSV_CHECK_MSG(addr != kNullAddr, "weak reference to null");
  entries_.push_back(WeakEntry{addr, payload, true});
  ++size_;
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

const WeakEntry& WeakRefTable::entry(std::uint32_t index) const {
  MSV_CHECK_MSG(index < entries_.size(), "weak entry index out of range");
  return entries_[index];
}

bool WeakRefTable::is_cleared(std::uint32_t index) const {
  const WeakEntry& e = entry(index);
  return e.was_set && e.target == kNullAddr;
}

void WeakRefTable::clear() {
  entries_.clear();
  size_ = 0;
  cleared_ = 0;
  tombstones_ = 0;
  ++generation_;
}

void WeakRefTable::compact() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < entries_.size(); ++r) {
    if (entries_[r].was_set) entries_[w++] = entries_[r];
  }
  entries_.resize(w);
  tombstones_ = 0;
  ++generation_;
}

}  // namespace msv::rt
