// Self-tests for the benchmark's own arithmetic: the tail-percentile
// choice and its sample count, max-rate selection, span self-time, the
// recorder's cycle accounting and the fastest-segment host time. It also
// writes the JSON fixtures whose round trip run.py checks. run.py runs this
// before every benchmark run; a failure stops the run with a non-zero exit.
//
//   msvbench_selftest <fixture-dir>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_quantile() {
  using msvbench::quantile;
  expect(quantile({}, 0.5) == 0, "quantile of nothing is 0");
  expect(quantile({7}, 0.99) == 7, "quantile of one sample is that sample");
  expect(near(quantile({1, 2, 3, 4}, 0.5), 2.5), "median interpolates");
  expect(near(quantile(ramp(101), 0.99), 100), "p99 of 1..101 is 100");
}

void test_tail() {
  using msvbench::samples_beyond;
  using msvbench::tail_of;
  expect(samples_beyond(10'000, 99.9) == 10, "99.9% of 10k leaves 10");
  expect(samples_beyond(9'999, 99.9) == 9, "99.9% of 9999 leaves 9");
  expect(samples_beyond(1'000, 99.0) == 10, "99% of 1000 leaves 10");
  expect(samples_beyond(100, 90.0) == 10, "90% of 100 leaves 10");

  // 10'000 samples: p99.9 has exactly 10 beyond it, p99.99 only 1.
  msvbench::Tail t = tail_of(ramp(10'000));
  expect(t.percentile == 99.9 && t.beyond == 10, "10k samples -> p99.9");
  expect(near(t.value, msvbench::quantile(ramp(10'000), 0.999)),
         "tail value is the p99.9 quantile");
  // One sample short of 10 beyond p99.9 falls back to p99.
  t = tail_of(ramp(9'999));
  expect(t.percentile == 99.0 && t.beyond == 99, "9999 samples -> p99");
  t = tail_of(ramp(1'000));
  expect(t.percentile == 99.0 && t.beyond == 10, "1000 samples -> p99");
  t = tail_of(ramp(999));
  expect(t.percentile == 90.0 && t.beyond == 99, "999 samples -> p90");
  t = tail_of(ramp(25));
  expect(t.percentile == 50.0 && t.beyond == 12, "25 samples -> p50");
  t = tail_of(ramp(19));
  expect(t.percentile == 0.0 && t.beyond == 0, "19 samples have no tail");
}

void test_max_rate() {
  using msvbench::Rung;
  const double limit = 1'000;
  const std::vector<Rung> rungs = {
      {100, 200, 0, false},   // passes
      {200, 400, 0, false},   // passes: the answer
      {300, 999, 3, false},   // under the limit but shed
      {400, 1'500, 0, false}, // over the limit
      {250, 500, 0, true},    // backlog growing
  };
  expect(msvbench::max_passing_rate(rungs, limit) == 200,
         "max rate skips shed, over-limit and growing rungs");
  expect(!msvbench::rung_ok({10, 1'000, 0, false}, limit),
         "p99 equal to the limit fails");
  expect(msvbench::max_passing_rate({{10, 5'000, 0, false}}, limit) == 0,
         "no passing rung gives 0");
  // Unordered ladders: the highest passing rate wins wherever it sits.
  expect(msvbench::max_passing_rate(
             {{500, 100, 0, false}, {50, 100, 0, false}}, limit) == 500,
         "ladder order does not matter");

  using msvbench::backlog_growing;
  expect(!backlog_growing({3, 5, 4, 6, 5, 4, 6, 5}), "steady backlog");
  expect(backlog_growing({1, 2, 4, 8, 16, 32, 64, 128}), "doubling backlog");
  expect(!backlog_growing({0, 0, 0, 0, 2, 3, 3, 4}),
         "a few requests of slack is not growth");
  expect(!backlog_growing({9}), "one sample cannot grow");
}

void test_self_time() {
  using msvbench::Span;
  std::vector<Span> spans(5);
  // root [0, 100): children [10, 30) and [20, 50) overlap -> cover 40;
  // child [90, 120) is clipped to [90, 100) -> 10 more.
  spans[0].host_begin_ns = 0;
  spans[0].host_end_ns = 100;
  spans[1] = {0, 0, 0, 10, 30, 0, 0};
  spans[2] = {0, 0, 0, 20, 50, 0, 0};
  spans[3] = {0, 0, 0, 90, 120, 0, 0};
  // Grandchild of span 1: covered by its parent, not by the root directly.
  spans[4] = {0, 1, 0, 12, 18, 0, 0};
  const std::vector<std::int64_t> self = msvbench::host_self_ns(spans);
  expect(self[0] == 50, "root self time = 100 - (40 + 10)");
  expect(self[1] == 14, "child self time = 20 - 6");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self time");
}

// The JSON round trip: writes a result line and a span file built from
// fixed inputs into `dir`; run.py parses both with Python's json module
// and compares them with the same inputs.
void write_json_fixtures(const std::string& dir) {
  const std::vector<msvbench::Metric> metrics = {
      {"latency_ms", 1.2034, "ms"},
      {"setup_s", 0.1 + 0.2, "s"},  // needs all 17 digits
      {"rmi.calls_per_transition", 1e-7, "ratio"},
      {"big", 123456789012345.0, "count"},
      {"esc\"aped\\name\n", 0.0, "1/s"},
  };
  std::ofstream(dir + "/result.json")
      << msvbench::result_json(true, 1000, 3, metrics) << "\n";
  // Span 0 [0, 100) has one child [10, 40): self time 70.
  std::vector<msvbench::Span> spans(2);
  spans[0] = {0, -1, 7, 0, 100, 5, 50};
  spans[1] = {1, 0, 7, 10, 40, 6, 20};
  std::ofstream(dir + "/spans.json")
      << msvbench::spans_json(spans, {"outer", "inner"});
}

void test_recorder() {
  msv::VirtualClock clock;
  msvbench::Recorder rec(clock, /*trace=*/true);
  const std::uint32_t outer = rec.layer("outer");
  const std::uint32_t inner = rec.layer("inner");
  expect(rec.layer("outer") == outer, "layer names intern");
  clock.advance(1'000);  // before the timed phase: not counted
  rec.begin_timed();
  clock.advance(7);  // outside every span: unattributed
  rec.call(outer, [&] {
    clock.advance(10);
    rec.call(inner, [&] { clock.advance(25); });
    clock.advance(5);
  });
  rec.call(inner, [&] { clock.advance(3); });
  rec.end_timed();
  expect(rec.timed_cycles() == 50, "timed phase spans the clock delta");
  expect(rec.layer_cycles(outer) == 15, "outer self cycles exclude inner");
  expect(rec.layer_cycles(inner) == 28, "inner cycles add up");
  expect(rec.unattributed_cycles() == 7, "remainder is unattributed");
  expect(rec.attributed_cycles() + rec.unattributed_cycles() ==
             rec.timed_cycles(),
         "cycle accounting closes");
  expect(rec.calls(inner) == 2 && rec.spans().size() == 3,
         "every call is counted and traced");
  expect(rec.spans()[1].parent == 0 && rec.spans()[2].parent == -1,
         "spans keep their parents");

  // Segments: one before the first request, one per request; they add up
  // to the timed phase's host time.
  rec.begin_timed();
  rec.set_request(1);
  rec.set_request(2);
  rec.end_timed();
  double sum = 0;
  for (const double s : rec.segment_host_s()) sum += s;
  expect(rec.segment_host_s().size() == 3 && near(sum, rec.timed_host_s()),
         "segments cover the timed phase");
}

void test_fastest_segments() {
  using msvbench::fastest_segments_s;
  expect(near(fastest_segments_s({{1, 5, 2}, {3, 1, 2}, {2, 2, 9}}), 4),
         "each segment at its fastest: 1 + 1 + 2");
  expect(near(fastest_segments_s({{0.5, 0.25}}), 0.75), "one pass is itself");
  bool threw = false;
  try {
    fastest_segments_s({{1, 2}, {1}});
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "passes with different segments are rejected");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: msvbench_selftest <fixture-dir>\n");
    return 2;
  }
  test_quantile();
  test_tail();
  test_max_rate();
  test_self_time();
  write_json_fixtures(argv[1]);
  test_recorder();
  test_fastest_segments();
  if (failures > 0) {
    std::fprintf(stderr, "%d selftest check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "msvbench selftest: all checks passed\n");
  return 0;
}
