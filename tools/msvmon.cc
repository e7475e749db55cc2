// msvmon — fleet health & forensics report tool (DESIGN.md §16).
//
// Renders the artifacts the health stack writes:
//   * SLO health reports (telemetry::SloMonitor::report) — already plain
//     text; msvmon validates the banner and re-prints timeline/breaches,
//     optionally filtered to one key.
//   * Post-mortem bundles (telemetry::FlightBus::bundle_json, format
//     "msv-postmortem-v1") — parsed with the built-in JSON reader and
//     rendered one post-mortem per section: reason, instant, frozen ring,
//     recent spans, metric snapshot.
//   * Folded profiler stacks (telemetry::SampleProfiler::folded) —
//     rendered as a top-N self-cycles table.
//
// Usage:
//   msvmon --health=FILE      render an SLO health report
//   msvmon --postmortem=FILE  render a post-mortem bundle
//   msvmon --folded=FILE      render folded stacks (top-N table)
//   msvmon --key=K            (with --health) only timeline lines of key K
//   msvmon --top=N            (with --folded) rows to show (default 20)
//   msvmon --summary          one-line verdict per input, no detail
//
// Exit status: 0 on success, 1 on unreadable input, 2 on a parse error —
// CI treats a bundle msvmon cannot parse as a failed artifact.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader (objects, arrays, strings, numbers,
// bools, null). The bundle is machine-written and escaped by flight.cc, so
// the reader is strict: any deviation is a parse error. Nesting is bounded
// (kMaxJsonDepth), which bounds the recursion of both the parse and the
// JsonValue destructor: a hostile [[[...]]] file is a parse error, not a
// stack overflow.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  // Insertion order preserved: bundles are rendered from sorted
  // containers, and msvmon re-prints in the same order.
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::string get_str(const std::string& key) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : std::string();
  }
  double get_num(const std::string& key) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : 0;
  }
};

// Bundles nest about five levels deep; the limit leaves ample headroom.
constexpr int kMaxJsonDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  std::string error() const { return error_; }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      }
      ++depth_;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !parse_string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // The bundle only escapes control bytes this way.
          out += static_cast<char>(code & 0xff);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(JsonValue& out) {
    out.kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(JsonValue& out) {
    out.kind = JsonValue::Kind::kNull;
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' ||
            s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    out.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "msvmon: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int render_health(const std::string& path, const std::string& key,
                  bool summary) {
  std::string text;
  if (!read_file(path, text)) return 1;
  if (text.compare(0, 20, "# msv health report ") != 0) {
    std::fprintf(stderr, "msvmon: %s is not an SLO health report\n",
                 path.c_str());
    return 2;
  }
  std::istringstream in(text);
  std::string line;
  std::uint64_t timeline = 0, breaches = 0;
  std::string section;
  std::vector<std::string> shown;
  while (std::getline(in, line)) {
    if (line == "## timeline" || line == "## breaches") {
      section = line;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    if (section == "## timeline") {
      ++timeline;
      if (!key.empty() && line.find(" " + key + ":") == std::string::npos) {
        continue;
      }
      shown.push_back(line);
    } else if (section == "## breaches") {
      ++breaches;
      shown.push_back(line);
    }
  }
  std::printf("msvmon: health report %s — %llu timeline events, %llu keys "
              "with breaches\n",
              path.c_str(), static_cast<unsigned long long>(timeline),
              static_cast<unsigned long long>(breaches));
  if (!summary) {
    for (const std::string& l : shown) std::printf("  %s\n", l.c_str());
  }
  return 0;
}

int render_postmortem(const std::string& path, bool summary) {
  std::string text;
  if (!read_file(path, text)) return 1;
  JsonValue root;
  JsonParser parser(text);
  if (!parser.parse(root) || root.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "msvmon: %s: JSON parse error: %s\n", path.c_str(),
                 parser.error().c_str());
    return 2;
  }
  if (root.get_str("format") != "msv-postmortem-v1") {
    std::fprintf(stderr, "msvmon: %s is not an msv-postmortem-v1 bundle\n",
                 path.c_str());
    return 2;
  }
  const double hz = root.get_num("clock_hz");
  const JsonValue* pms = root.find("postmortems");
  if (pms == nullptr || pms->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "msvmon: %s: missing postmortems array\n",
                 path.c_str());
    return 2;
  }
  std::printf("msvmon: post-mortem bundle %s — %zu snapshot(s), clock %.3g "
              "Hz, ring capacity %g\n",
              path.c_str(), pms->array.size(), hz,
              root.get_num("ring_capacity"));
  if (summary) return 0;
  for (const JsonValue& pm : pms->array) {
    const double at = pm.get_num("at_cycles");
    std::printf("\n== post-mortem #%g: enclave %s, reason %s, at %.0f "
                "cycles (%.3fms) ==\n",
                pm.get_num("seq"), pm.get_str("enclave").c_str(),
                pm.get_str("reason").c_str(), at,
                hz > 0 ? at / hz * 1e3 : 0.0);
    if (const JsonValue* extra = pm.find("extra")) {
      for (const auto& [k, v] : extra->object) {
        std::printf("   %s = %s\n", k.c_str(), v.str.c_str());
      }
    }
    std::printf("   ring: %g recorded, %g evicted\n",
                pm.get_num("ring_recorded"), pm.get_num("ring_evicted"));
    if (const JsonValue* events = pm.find("events")) {
      std::printf("   last %zu flight events:\n", events->array.size());
      for (const JsonValue& e : events->array) {
        std::printf("     [%12.0fcy] %-10s %s (a=%g b=%g)\n",
                    e.get_num("at"), e.get_str("kind").c_str(),
                    e.get_str("name").c_str(), e.get_num("a"),
                    e.get_num("b"));
      }
    }
    if (const JsonValue* spans = pm.find("recent_spans")) {
      std::printf("   recent spans (%zu):\n", spans->array.size());
      for (const JsonValue& s : spans->array) {
        std::printf("     [%12.0fcy +%.0f] %s/%s%s\n", s.get_num("start"),
                    s.get_num("end") - s.get_num("start"),
                    s.get_str("category").c_str(), s.get_str("name").c_str(),
                    s.find("open") != nullptr && s.find("open")->boolean
                        ? " (open)"
                        : "");
      }
    }
    if (const JsonValue* metrics = pm.find("metrics")) {
      std::printf("   metrics snapshot: %zu series\n",
                  metrics->object.size());
    }
  }
  return 0;
}

int render_folded(const std::string& path, std::size_t top, bool summary) {
  std::string text;
  if (!read_file(path, text)) return 1;
  std::istringstream in(text);
  std::string line;
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) {
      std::fprintf(stderr, "msvmon: %s: not folded-stacks format\n",
                   path.c_str());
      return 2;
    }
    const std::uint64_t n = std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    rows.emplace_back(n, line.substr(0, sp));
    total += n;
  }
  std::printf("msvmon: folded stacks %s — %zu distinct stacks, %llu "
              "samples\n",
              path.c_str(), rows.size(),
              static_cast<unsigned long long>(total));
  if (summary || rows.empty()) return 0;
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::printf("  %8s %6s  stack\n", "samples", "%");
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    std::printf("  %8llu %5.1f%%  %s\n",
                static_cast<unsigned long long>(rows[i].first),
                total > 0 ? 100.0 * static_cast<double>(rows[i].first) /
                                static_cast<double>(total)
                          : 0.0,
                rows[i].second.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string health, postmortem, folded, key;
  std::size_t top = 20;
  bool summary = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--health=", 9) == 0) {
      health = a + 9;
    } else if (std::strncmp(a, "--postmortem=", 13) == 0) {
      postmortem = a + 13;
    } else if (std::strncmp(a, "--folded=", 9) == 0) {
      folded = a + 9;
    } else if (std::strncmp(a, "--key=", 6) == 0) {
      key = a + 6;
    } else if (std::strncmp(a, "--top=", 6) == 0) {
      top = static_cast<std::size_t>(std::strtoull(a + 6, nullptr, 10));
    } else if (std::strcmp(a, "--summary") == 0) {
      summary = true;
    } else {
      std::fprintf(stderr,
                   "usage: msvmon [--health=FILE] [--postmortem=FILE] "
                   "[--folded=FILE] [--key=K] [--top=N] [--summary]\n");
      return 1;
    }
  }
  if (health.empty() && postmortem.empty() && folded.empty()) {
    std::fprintf(stderr, "msvmon: nothing to do (pass --health/"
                         "--postmortem/--folded)\n");
    return 1;
  }
  int rc = 0;
  if (!health.empty()) rc = std::max(rc, render_health(health, key, summary));
  if (!postmortem.empty()) {
    rc = std::max(rc, render_postmortem(postmortem, summary));
  }
  if (!folded.empty()) rc = std::max(rc, render_folded(folded, top, summary));
  return rc;
}
