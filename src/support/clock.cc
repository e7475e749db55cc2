#include "support/clock.h"

#include <algorithm>

#include "support/error.h"

namespace msv {

void VirtualClock::advance_slow(Cycles c) {
  if (detached_depth_ > 0) {
    detached_total_ += c;
    return;
  }
  const Cycles target = now_ + c;
  MSV_CHECK_MSG(target >= now_, "virtual clock overflow");
  while (!timers_.empty() && timers_.front().deadline <= target) {
    Timer t = pop_timer();
    if (t.cancelled) {
      --cancelled_;
      continue;
    }
    now_ = t.deadline;
    // A periodic timer is requeued before its callback runs, so the
    // callback can cancel it.
    if (t.period != 0) {
      push_timer(Timer{t.deadline + t.period, t.id, t.period, false, t.fn});
    }
    t.fn();
  }
  now_ = target;
}

void VirtualClock::push_timer(Timer t) {
  timers_.push_back(std::move(t));
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
  next_deadline_ = timers_.front().deadline;
}

VirtualClock::Timer VirtualClock::pop_timer() {
  std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
  Timer t = std::move(timers_.back());
  timers_.pop_back();
  next_deadline_ = timers_.empty() ? ~Cycles{0} : timers_.front().deadline;
  return t;
}

Cycles VirtualClock::measure_detached(const std::function<void()>& fn) {
  ++detached_depth_;
  const Cycles before = detached_total_;
  try {
    fn();
  } catch (...) {
    --detached_depth_;
    if (detached_depth_ == 0) detached_total_ = 0;
    throw;
  }
  --detached_depth_;
  const Cycles charged = detached_total_ - before;
  if (detached_depth_ == 0) detached_total_ = 0;
  return charged;
}

std::uint64_t VirtualClock::schedule_at(Cycles deadline,
                                        std::function<void()> fn) {
  MSV_CHECK_MSG(deadline >= now_, "timer deadline in the past");
  const std::uint64_t id = next_id_++;
  push_timer(Timer{deadline, id, 0, false, std::move(fn)});
  return id;
}

std::uint64_t VirtualClock::schedule_every(Cycles period,
                                           std::function<void()> fn) {
  MSV_CHECK_MSG(period > 0, "periodic timer needs a non-zero period");
  const std::uint64_t id = next_id_++;
  push_timer(Timer{now_ + period, id, period, false, std::move(fn)});
  return id;
}

void VirtualClock::cancel(std::uint64_t timer_id) {
  // Ids are unique among queued timers: a periodic timer is requeued only
  // after its previous entry was popped.
  for (Timer& t : timers_) {
    if (t.id == timer_id) {
      if (!t.cancelled) {
        t.cancelled = true;
        ++cancelled_;
      }
      return;
    }
  }
}

}  // namespace msv
