// Error types shared across the Montsalvat library.
//
// Errors that indicate misuse of the public API or an invalid application
// model throw ConfigError; violations of internal invariants detected at
// run time throw RuntimeFault. Both derive from Error so callers can catch
// everything from this library with one handler.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace msv {

// Base class for all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// An invalid configuration, application model, or API misuse.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

// An internal invariant was violated during simulation.
class RuntimeFault : public Error {
 public:
  explicit RuntimeFault(const std::string& what) : Error(what) {}
};

// A security violation detected by the simulated SGX substrate, e.g. code
// outside the enclave touching enclave memory.
class SecurityFault : public Error {
 public:
  explicit SecurityFault(const std::string& what) : Error(what) {}
};

// Malformed bytecode trapped by the interpreter's operand decoding: an
// out-of-bounds constant-pool/name-pool/local/field index or jump target.
// Derives from RuntimeFault so existing handlers keep working; the typed
// subclass lets tests and the verify gate distinguish "the bytecode is
// broken" from "the simulation violated an invariant".
class TrapError : public RuntimeFault {
 public:
  explicit TrapError(const std::string& what) : RuntimeFault(what) {}
};

namespace detail {
// `file` relative to the repository root, which this header finds from its
// own path (src/support/error.h). Check messages name files this way, so
// their text — which a failed call inside an RMI batch carries back
// in-band, as charged payload — does not depend on where the tree is
// checked out.
inline const char* repo_relative(const char* file) {
  constexpr std::string_view self = __FILE__;
  constexpr std::string_view tail = "src/support/error.h";
  if (!self.ends_with(tail)) return file;
  const std::string_view root = self.substr(0, self.size() - tail.size());
  return std::string_view(file).starts_with(root) ? file + root.size() : file;
}

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  throw RuntimeFault(std::string("check failed: ") + expr + " at " +
                     repo_relative(file) + ":" + std::to_string(line) +
                     (msg.empty() ? "" : (": " + msg)));
}
}  // namespace detail

}  // namespace msv

// Invariant check that throws RuntimeFault (never compiled out: the
// simulation relies on these checks as part of its contract).
#define MSV_CHECK(expr)                                              \
  do {                                                               \
    if (!(expr)) ::msv::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define MSV_CHECK_MSG(expr, msg)                                      \
  do {                                                                \
    if (!(expr)) ::msv::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)
