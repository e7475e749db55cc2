#include "runtime/churn.h"

#include <algorithm>
#include <string>
#include <vector>

namespace msv::rt {

namespace {

// The live window: raw root slots of the isolate's handle table, oldest
// first, in a ring. Slots are created and released exactly as a
// std::deque<GcRef> window would create and release them: one right after
// each allocation, the oldest on overflow, and the rest on exit (also when
// an allocation throws) in libstdc++'s deque destruction order, see
// ~RootWindow. That order decides the free-list reuse, hence the root visit
// order of every later collect() and the object layout it produces.
class RootWindow {
 public:
  RootWindow(HandleTable& handles, std::size_t capacity)
      : handles_(handles), ring_(capacity) {}

  // libstdc++ keeps a deque in blocks of 512 bytes (32 GcRefs) and
  // destroys the interior blocks first, then the rest of the head block,
  // then the filled part of the tail block. With only push_back and
  // pop_front, the k-th pushed entry sits at offset k % 32 of block k / 32.
  ~RootWindow() {
    constexpr std::uint64_t kBlock = 32;
    const std::uint64_t first = pushed_ - size_;
    const std::uint64_t last = pushed_;
    if (first / kBlock == last / kBlock) {
      release(first, last);
      return;
    }
    const std::uint64_t head_end = (first / kBlock + 1) * kBlock;
    const std::uint64_t tail_begin = last / kBlock * kBlock;
    release(head_end, tail_begin);
    release(first, head_end);
    release(tail_begin, last);
  }

  RootWindow(const RootWindow&) = delete;
  RootWindow& operator=(const RootWindow&) = delete;

  std::size_t size() const { return size_; }

  void push_back(std::uint32_t slot) {
    ring_[wrap(head_ + size_)] = slot;
    ++size_;
    ++pushed_;
  }

  void pop_front() {
    handles_.release(ring_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
  }

 private:
  std::size_t wrap(std::size_t i) const {
    return i >= ring_.size() ? i - ring_.size() : i;
  }

  // Releases the entries pushed as the [from, to)-th, which must be live.
  void release(std::uint64_t from, std::uint64_t to) {
    const std::uint64_t first = pushed_ - size_;
    for (std::uint64_t k = from; k < to; ++k) {
      const auto offset = static_cast<std::size_t>(k - first);
      handles_.release(ring_[wrap(head_ + offset)]);
    }
  }

  HandleTable& handles_;
  std::vector<std::uint32_t> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
};

}  // namespace

ChurnResult alloc_churn(Isolate& isolate, std::uint64_t total_bytes,
                        std::uint64_t live_window_bytes,
                        std::uint32_t box_payload_bytes) {
  const std::string payload(box_payload_bytes, 's');
  // Total footprint per box: header + padded payload.
  const std::uint64_t box_total =
      sizeof(ObjectHeader) + ((box_payload_bytes + 7ull) & ~7ull);
  const std::uint64_t boxes = total_bytes / box_total;
  const std::uint64_t live_boxes =
      std::max<std::uint64_t>(1, live_window_bytes / box_total);

  ChurnResult result;
  // At most live_boxes + 1 slots are held at once (one past the window
  // until the oldest is dropped), and never more than `boxes`.
  RootWindow window(isolate.handles(),
                    std::max<std::uint64_t>(
                        1, std::min<std::uint64_t>(live_boxes + 1, boxes)));
  for (std::uint64_t i = 0; i < boxes; ++i) {
    const ObjAddr box = isolate.heap().alloc_string(payload);
    window.push_back(isolate.handles().create(box));
    if (window.size() > live_boxes) window.pop_front();
    ++result.allocations;
  }
  return result;
}

}  // namespace msv::rt
