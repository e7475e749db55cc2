// The benchmark's own measurement layer: span recording around every call
// the benchmark makes into a library layer, the exact outside-in cycle
// accounting, and the small pieces of arithmetic the report depends on
// (tail percentile choice, max-rate selection, span self-time, the
// result line and span file).
//
// Nothing here reaches into the library: the Recorder only reads the
// virtual clock before and after each call, so a traced and an untraced
// run charge identical simulated cycles.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/clock.h"

namespace msvbench {

using msv::Cycles;

// ---- Percentiles ------------------------------------------------------------

// Linear-interpolation quantile of a sample (msv::Samples::percentile),
// p in [0, 1]; 0 for an empty sample.
double quantile(const std::vector<double>& v, double p);

// The reported tail: the highest candidate percentile (50, 90, 99, 99.9,
// 99.99, 99.999) with at least `min_beyond` samples strictly above its rank.
struct Tail {
  double percentile = 0;     // e.g. 99.9
  std::uint64_t beyond = 0;  // samples above that rank
  double value = 0;
};
std::uint64_t samples_beyond(std::uint64_t n, double percentile);
Tail tail_of(const std::vector<double>& sorted, std::uint64_t min_beyond = 10);

// ---- Max sustainable rate ---------------------------------------------------

// One offered rate of the open-loop ladder and what it produced.
struct Rung {
  double rate_rps = 0;
  double p99_us = 0;
  std::uint64_t shed = 0;
  bool backlog_growing = false;
};

// Backlog growth from evenly spaced samples of the queued-request count
// taken over the arrival window: the second half's mean exceeds the first
// half's by half again plus a few requests.
bool backlog_growing(const std::vector<std::size_t>& pending_samples);

// A rung passes when its p99 is under the limit, nothing was shed and the
// backlog did not grow.
bool rung_ok(const Rung& rung, double p99_limit_us);

// Highest passing rate of the ladder; 0 when no rung passes.
double max_passing_rate(const std::vector<Rung>& rungs, double p99_limit_us);

// ---- Spans ------------------------------------------------------------------

struct Span {
  std::uint32_t layer = 0;
  std::int32_t parent = -1;  // index into the span list, -1 at top level
  std::uint64_t request = 0;  // shared by every span of one segment
  std::int64_t host_begin_ns = 0;
  std::int64_t host_end_ns = 0;
  Cycles sim_begin = 0;
  Cycles sim_end = 0;
};

// Self time of each span: its duration minus the part of its interval its
// direct children cover (overlapping children count once).
std::vector<std::int64_t> host_self_ns(const std::vector<Span>& spans);

// Records the benchmark's calls into the library's layers. Every call is
// cycle-metered (two clock reads) in every run; host time and the span
// list are kept only when tracing. Calls nest on one OS thread in strict
// stack order; the fleet workload's generator fiber is the only fiber that
// opens spans while another is open, and it never yields inside one.
class Recorder {
 public:
  Recorder(const msv::VirtualClock& clock, bool trace);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Interns a layer name ("rmi.invoke", "runtime.heap.collect", ...).
  std::uint32_t layer(const std::string& name);
  const std::vector<std::string>& layer_names() const { return names_; }

  // Starts the next request (a round, a ladder rung, a slice of a rate
  // run): spans carry its id, and inside the timed phase it also starts a
  // new host-time segment.
  void set_request(std::uint64_t id);

  template <class F>
  decltype(auto) call(std::uint32_t layer, F&& fn) {
    open(layer);
    struct Closer {
      Recorder* r;
      ~Closer() { r->close(); }
    } closer{this};
    return fn();
  }

  // The timed phase: accounting restarts at begin_timed(); end_timed()
  // freezes the clock delta and the unattributed remainder.
  void begin_timed();
  void end_timed();

  bool trace() const { return trace_; }
  Cycles timed_cycles() const { return timed_cycles_; }
  double timed_host_s() const { return timed_host_s_; }
  // Host seconds of each segment of the timed phase, in order; they add
  // up to timed_host_s(). The first runs from begin_timed() to the first
  // set_request().
  const std::vector<double>& segment_host_s() const { return segments_; }
  // Self cycles charged inside each layer's calls during the timed phase.
  Cycles layer_cycles(std::uint32_t layer) const;
  Cycles attributed_cycles() const;
  Cycles unattributed_cycles() const {
    return timed_cycles_ - attributed_cycles();
  }
  // Self host seconds per layer, from the span list (traced runs only).
  std::vector<double> layer_host_s() const;
  std::uint64_t calls(std::uint32_t layer) const;
  const std::vector<Span>& spans() const { return spans_; }

  static std::int64_t host_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Frame {
    std::uint32_t layer;
    Cycles sim_begin;
    Cycles child_cycles;
    std::int32_t span;  // index into spans_, -1 when not tracing
  };

  void open(std::uint32_t layer);
  void close();

  const msv::VirtualClock& clock_;
  bool trace_;
  bool timed_ = false;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> by_name_;
  std::vector<Cycles> self_cycles_;
  std::vector<std::uint64_t> calls_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::uint64_t request_ = 0;
  Cycles timed_begin_ = 0;
  Cycles timed_cycles_ = 0;
  std::int64_t timed_host_begin_ns_ = 0;
  double timed_host_s_ = 0;
  std::int64_t segment_begin_ns_ = 0;
  std::vector<double> segments_;
};

// Host time of the timed phase with each segment at its fastest across
// passes (`passes[p][k]` is segment k of pass p). The passes of one seed
// do identical work segment by segment, and interference from other
// processes only ever slows a segment down, in bursts of seconds: this
// keeps the fast segments of every pass.
double fastest_segments_s(const std::vector<std::vector<double>>& passes);

// ---- JSON -------------------------------------------------------------------

std::string json_escape(const std::string& s);
// Shortest text that reads back as exactly `v`.
std::string json_number(double v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The result line: {"correct": .., "attempted": .., "failed": ..,
// "metrics": {name: {"value": .., "unit": ..}, ...}}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

// The span file a traced run writes.
std::string spans_json(const std::vector<Span>& spans,
                       const std::vector<std::string>& layer_names);

// ---- Digest -----------------------------------------------------------------

class Digest {
 public:
  void add(std::uint64_t v);
  void add(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace msvbench
