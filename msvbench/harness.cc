#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "support/stats.h"

namespace msvbench {

// ---- Percentiles ------------------------------------------------------------

double quantile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  msv::Samples samples;
  for (const double x : v) samples.add(x);
  return samples.percentile(p * 100.0);
}

std::uint64_t samples_beyond(std::uint64_t n, double percentile) {
  // Samples ranked strictly above the percentile: floor(n * (1 - p)),
  // computed on integers so 99.9% of 10'000 is exactly 10.
  const auto parts = static_cast<std::uint64_t>(
      std::llround((100.0 - percentile) * 1000.0));  // per 100'000
  return n * parts / 100'000;
}

Tail tail_of(const std::vector<double>& sorted, std::uint64_t min_beyond) {
  static constexpr double kCandidates[] = {50.0, 90.0,   99.0,
                                           99.9, 99.99, 99.999};
  Tail t;
  for (const double p : kCandidates) {
    const std::uint64_t beyond = samples_beyond(sorted.size(), p);
    if (beyond < min_beyond) break;
    t.percentile = p;
    t.beyond = beyond;
    t.value = quantile(sorted, p / 100.0);
  }
  return t;
}

// ---- Max sustainable rate ---------------------------------------------------

bool backlog_growing(const std::vector<std::size_t>& pending_samples) {
  const std::size_t n = pending_samples.size();
  if (n < 2) return false;
  double first = 0, second = 0;
  for (std::size_t i = 0; i < n / 2; ++i) first += pending_samples[i];
  for (std::size_t i = n - n / 2; i < n; ++i) second += pending_samples[i];
  first /= static_cast<double>(n / 2);
  second /= static_cast<double>(n / 2);
  return second > 1.5 * first + 4.0;
}

bool rung_ok(const Rung& rung, double p99_limit_us) {
  return rung.p99_us < p99_limit_us && rung.shed == 0 &&
         !rung.backlog_growing;
}

double max_passing_rate(const std::vector<Rung>& rungs, double p99_limit_us) {
  double best = 0;
  for (const Rung& r : rungs) {
    if (rung_ok(r, p99_limit_us)) best = std::max(best, r.rate_rps);
  }
  return best;
}

// ---- Spans ------------------------------------------------------------------

std::vector<std::int64_t> host_self_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::int64_t b = std::max(spans[c].host_begin_ns, s.host_begin_ns);
      const std::int64_t e = std::min(spans[c].host_end_ns, s.host_end_ns);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, run_b = 0, run_e = 0;
    bool open = false;
    for (const auto& [b, e] : cover) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) covered += run_e - run_b;
    self[i] = (s.host_end_ns - s.host_begin_ns) - covered;
  }
  return self;
}

Recorder::Recorder(const msv::VirtualClock& clock, bool trace)
    : clock_(clock), trace_(trace) {}

std::uint32_t Recorder::layer(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, id);
  self_cycles_.push_back(0);
  calls_.push_back(0);
  return id;
}

void Recorder::open(std::uint32_t layer) {
  Frame f{layer, clock_.now(), 0, -1};
  if (trace_ && timed_) {
    Span s;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back().span;
    s.request = request_;
    s.sim_begin = f.sim_begin;
    s.host_begin_ns = host_ns();
    f.span = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
  }
  stack_.push_back(f);
}

void Recorder::close() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const Cycles now = clock_.now();
  const Cycles total = now - f.sim_begin;
  if (timed_) {
    self_cycles_[f.layer] += total - f.child_cycles;
    ++calls_[f.layer];
  }
  if (!stack_.empty()) stack_.back().child_cycles += total;
  if (f.span >= 0) {
    Span& s = spans_[static_cast<std::size_t>(f.span)];
    s.host_end_ns = host_ns();
    s.sim_end = now;
  }
}

void Recorder::set_request(std::uint64_t id) {
  request_ = id;
  if (!timed_) return;
  const std::int64_t now = host_ns();
  segments_.push_back(static_cast<double>(now - segment_begin_ns_) * 1e-9);
  segment_begin_ns_ = now;
}

void Recorder::begin_timed() {
  if (!stack_.empty()) throw std::logic_error("timed phase inside a span");
  std::fill(self_cycles_.begin(), self_cycles_.end(), 0);
  std::fill(calls_.begin(), calls_.end(), 0);
  spans_.clear();
  segments_.clear();
  timed_ = true;
  timed_begin_ = clock_.now();
  timed_host_begin_ns_ = host_ns();
  segment_begin_ns_ = timed_host_begin_ns_;
}

void Recorder::end_timed() {
  if (!stack_.empty()) throw std::logic_error("timed phase ends inside a span");
  const std::int64_t now = host_ns();
  segments_.push_back(static_cast<double>(now - segment_begin_ns_) * 1e-9);
  timed_host_s_ = static_cast<double>(now - timed_host_begin_ns_) * 1e-9;
  timed_cycles_ = clock_.now() - timed_begin_;
  timed_ = false;
}

double fastest_segments_s(const std::vector<std::vector<double>>& passes) {
  std::vector<double> best;
  for (const std::vector<double>& segs : passes) {
    if (best.empty()) best = segs;
    if (segs.size() != best.size()) {
      throw std::logic_error("passes of one seed split into different segments");
    }
    for (std::size_t k = 0; k < segs.size(); ++k) {
      best[k] = std::min(best[k], segs[k]);
    }
  }
  double total = 0;
  for (const double s : best) total += s;
  return total;
}

Cycles Recorder::layer_cycles(std::uint32_t layer) const {
  return self_cycles_.at(layer);
}

Cycles Recorder::attributed_cycles() const {
  Cycles sum = 0;
  for (const Cycles c : self_cycles_) sum += c;
  return sum;
}

std::uint64_t Recorder::calls(std::uint32_t layer) const {
  return calls_.at(layer);
}

std::vector<double> Recorder::layer_host_s() const {
  std::vector<double> out(names_.size(), 0.0);
  const std::vector<std::int64_t> self = host_self_ns(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

// ---- JSON -------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::string spans_json(const std::vector<Span>& spans,
                       const std::vector<std::string>& layer_names) {
  const std::vector<std::int64_t> self = host_self_ns(spans);
  std::string out = "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "{\"id\": " + std::to_string(i) + ", \"parent\": " +
           std::to_string(s.parent) + ", \"request\": " +
           std::to_string(s.request) + ", \"name\": \"" +
           json_escape(layer_names.at(s.layer)) + "\", \"host_begin_ns\": " +
           std::to_string(s.host_begin_ns) + ", \"host_end_ns\": " +
           std::to_string(s.host_end_ns) + ", \"host_self_ns\": " +
           std::to_string(self[i]) + ", \"sim_begin\": " +
           std::to_string(s.sim_begin) + ", \"sim_end\": " +
           std::to_string(s.sim_end) + "}";
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

// ---- Digest -----------------------------------------------------------------

void Digest::add(std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (v >> (8 * b)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(const std::string& s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

}  // namespace msvbench
