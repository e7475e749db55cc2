#include "sgx/epc.h"

#include "support/error.h"

namespace msv::sgx {

EpcModel::EpcModel(Env& env)
    : env_(env),
      capacity_pages_(env.cost.epc_usable_bytes / env.cost.page_bytes),
      limit_pages_(capacity_pages_) {
  MSV_CHECK_MSG(capacity_pages_ > 0, "EPC capacity must be at least a page");
}

EpcModel::Key EpcModel::make_key(std::uint64_t region, std::uint64_t page) {
  // Both halves must be range-checked: a region id >= 2^24 would shift
  // bits off the top and silently alias another region's keys.
  MSV_CHECK_MSG(region < (1ull << 24), "EPC region index out of range");
  MSV_CHECK_MSG(page < (1ull << 40), "EPC page index out of range");
  return (region << 40) | page;
}

void EpcModel::drain_to_capacity(std::uint64_t headroom) {
  // Each excess page charges its page-out exactly once, here: the lazy
  // eviction promised by set_reserved_pages / set_limit. With the
  // resident set within capacity this loop is a no-op, so the
  // no-pressure path stays byte-identical to the pre-limit model.
  const std::uint64_t cap = effective_capacity_pages();
  while (lru_.size() + headroom > cap) {
    ++stats_.evictions;
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kEpc,
                              env_.telemetry.names().epc_page_out);
    env_.clock.advance(env_.cost.epc_page_out_cycles);
    index_.erase(lru_.back());
    lru_.pop_back();
  }
}

void EpcModel::access(std::uint64_t region, std::uint64_t page) {
  ++stats_.accesses;
  // The pressure drain runs before the lookup: a page beyond the
  // (possibly just-shrunk) effective capacity cannot be EPC-resident, so
  // touching one must fault and page back in — treating it as a free hit
  // (the pre-set_limit behaviour) both skipped the eviction charge and
  // left the resident count physically over capacity indefinitely.
  drain_to_capacity(0);
  const Key key = make_key(region, page);
  // A touch of the most-recently-used page (consecutive objects on one
  // page) is a hit whose splice would be a no-op: skip the lookup.
  if (!lru_.empty() && lru_.front() == key) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  // Miss: the driver pages the frame in, evicting the LRU page if full.
  ++stats_.faults;
  {
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kEpc,
                              env_.telemetry.names().epc_page_in);
    env_.clock.advance(env_.cost.epc_page_in_cycles);
  }
  // Make room for the incoming page (at most one eviction here — the
  // pre-access drain already clamped the set to capacity).
  drain_to_capacity(1);
  lru_.push_front(key);
  index_[key] = lru_.begin();
}

void EpcModel::invalidate_all() {
  stats_.invalidated += lru_.size();
  index_.clear();
  lru_.clear();
}

void EpcModel::set_reserved_pages(std::uint64_t n) {
  MSV_CHECK_MSG(n < capacity_pages_,
                "EPC pressure must leave at least one usable page");
  reserved_pages_ = n;
}

void EpcModel::set_limit(std::uint64_t pages) {
  MSV_CHECK_MSG(pages > 0, "EPC limit must leave at least one usable page");
  limit_pages_ = pages < capacity_pages_ ? pages : capacity_pages_;
}

void EpcModel::release_region(std::uint64_t region) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if ((*it >> 40) == region) {
      index_.erase(*it);
      it = lru_.erase(it);
      ++stats_.released;
    } else {
      ++it;
    }
  }
}

}  // namespace msv::sgx
