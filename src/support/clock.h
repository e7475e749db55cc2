// Deterministic virtual time.
//
// All latencies reported by benchmarks in this repository are *simulated*:
// a VirtualClock counts CPU cycles charged by the cost model (see
// cost_model.h) and converts them to seconds at the frequency of the paper's
// evaluation machine (3.8 GHz Xeon E3-1270). The clock also owns a timer
// queue so periodic activities — most importantly the GC helper threads of
// §5.5 — fire at exact simulated instants, which keeps every test and
// benchmark reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace msv {

using Cycles = std::uint64_t;

class VirtualClock {
 public:
  explicit VirtualClock(double hz = 3.8e9) : hz_(hz) {}

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  Cycles now() const { return now_; }
  double seconds() const { return static_cast<double>(now_) / hz_; }
  double hz() const { return hz_; }

  Cycles seconds_to_cycles(double s) const {
    return static_cast<Cycles>(s * hz_);
  }

  // Advances time by `c` cycles, firing any timers that become due. Timer
  // callbacks run with the clock set to their exact deadline, so a periodic
  // timer observes evenly spaced instants regardless of advance granularity.
  //
  // Fast path: attached, and the target instant lies strictly before the
  // earliest queued deadline — no timer can fire and the slow path would
  // only assign now_ = target, so this assigns it directly.
  void advance(Cycles c) {
    const Cycles target = now_ + c;
    if (detached_depth_ == 0 && target >= now_ && target < next_deadline_) {
      now_ = target;
      return;
    }
    advance_slow(c);
  }

  // Runs `fn` with the clock detached: every advance() it performs is
  // accumulated and returned instead of moving now() (timers do not fire).
  // This measures the exact cycle cost of an activity that executes on a
  // core of its own — the GC helper threads of §5.5 — so the serving layer
  // can realize the cost as a sleep of the owning isolate rather than a
  // stall of the shared timeline. Nesting is allowed; the inner call
  // returns only its own charges.
  Cycles measure_detached(const std::function<void()>& fn);

  // Schedules `fn` to run once when the clock reaches `deadline` (absolute).
  // Returns an id usable with cancel().
  std::uint64_t schedule_at(Cycles deadline, std::function<void()> fn);

  // Schedules `fn` every `period` cycles, first firing at now()+period.
  // The callback keeps firing until cancelled.
  std::uint64_t schedule_every(Cycles period, std::function<void()> fn);

  // Cancels a queued timer. A no-op for an id that is not queued: a
  // one-shot timer that already fired, or an id cancelled before.
  void cancel(std::uint64_t timer_id);

  // Number of timers currently scheduled (periodic timers count once).
  std::size_t pending_timers() const { return timers_.size() - cancelled_; }

 private:
  struct Timer {
    Cycles deadline;
    std::uint64_t id;
    Cycles period;  // 0 for one-shot
    bool cancelled = false;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return deadline != o.deadline ? deadline > o.deadline : id > o.id;
    }
  };

  void advance_slow(Cycles c);
  void push_timer(Timer t);
  Timer pop_timer();

  double hz_;
  Cycles now_ = 0;
  std::uint32_t detached_depth_ = 0;
  Cycles detached_total_ = 0;
  std::uint64_t next_id_ = 1;
  // Min-heap on (deadline, id) — a total order, so the firing order does
  // not depend on the heap layout.
  std::vector<Timer> timers_;
  // Deadline of timers_.front() (cancelled or not), or the maximum when
  // the queue is empty; refreshed on every push and pop.
  Cycles next_deadline_ = ~Cycles{0};
  // Queued timers marked cancelled, dropped when they reach the front.
  std::size_t cancelled_ = 0;
};

}  // namespace msv
