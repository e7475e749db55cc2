#include "rmi/proxy_index.h"

namespace msv::rmi {

void ProxyIndex::add(rt::ObjAddr addr, std::int64_t hash) {
  const std::uint32_t slot =
      weak_.add(addr, static_cast<std::uint64_t>(hash));
  const auto [it, inserted] = slot_by_hash_.try_emplace(hash, slot);
  if (!inserted) {
    if (weak_.entry(it->second).target != rt::kNullAddr) shadowed_ = true;
    it->second = slot;
  }
}

void ProxyIndex::clear() {
  slot_by_hash_.clear();
  weak_.clear();
  generation_ = weak_.generation();
  shadowed_ = false;
}

void ProxyIndex::rebuild() {
  slot_by_hash_.clear();
  shadowed_ = false;
  for (std::uint32_t i = 0; i < weak_.slot_count(); ++i) {
    const rt::WeakEntry& e = weak_.entry(i);
    if (e.target == rt::kNullAddr) continue;
    const auto [it, inserted] =
        slot_by_hash_.try_emplace(static_cast<std::int64_t>(e.payload), i);
    if (!inserted) {
      shadowed_ = true;
      it->second = i;
    }
  }
  generation_ = weak_.generation();
}

}  // namespace msv::rmi
