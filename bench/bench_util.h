#ifndef CROWDJOIN_BENCH_BENCH_UTIL_H_
#define CROWDJOIN_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace crowdjoin::bench {

/// \brief Strict --flag=value parser for the figure/table harnesses.
///
/// A malformed value (non-numeric text, trailing junk, a negative number
/// for an unsigned flag, out-of-range magnitude) is a hard error: the
/// process prints the offending flag and exits with code 2. The old parser
/// silently fell back on garbage — `--threads=8x` benchmarked one thread
/// and nobody noticed. Harnesses that read their flags unconditionally
/// should call `Done()` after the last Get*, which turns unrecognized
/// (never-consumed) arguments into the same hard error, catching typos
/// like `--thread=8`.
class Args {
 public:
  Args(int argc, char** argv)
      : argc_(argc),
        argv_(argv),
        consumed_(argc > 0 ? static_cast<size_t>(argc) : 0, false) {}

  uint64_t GetUint64(std::string_view name, uint64_t fallback) const {
    std::string value;
    if (!Find(name, &value)) return fallback;
    if (value.empty() || value[0] == '-' || value[0] == '+') {
      Fail(name, value, "expected a non-negative integer");
    }
    errno = 0;
    char* end = nullptr;
    const uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
    if (errno == ERANGE) Fail(name, value, "out of range");
    if (end == nullptr || *end != '\0') {
      Fail(name, value, "expected a non-negative integer");
    }
    return parsed;
  }

  double GetDouble(std::string_view name, double fallback) const {
    std::string value;
    if (!Find(name, &value)) return fallback;
    if (value.empty()) Fail(name, value, "expected a number");
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (errno == ERANGE) Fail(name, value, "out of range");
    if (end == nullptr || *end != '\0') Fail(name, value, "expected a number");
    return parsed;
  }

  std::string GetString(std::string_view name, std::string fallback) const {
    std::string value;
    if (!Find(name, &value)) return fallback;
    return value;
  }

  /// Strict log-severity flag: accepts debug|info|warning|error|off (the
  /// names of crowdjoin::LogLevel), anything else is the usual hard error.
  LogLevel GetLogLevel(std::string_view name, LogLevel fallback) const {
    std::string value;
    if (!Find(name, &value)) return fallback;
    if (value == "debug") return LogLevel::kDebug;
    if (value == "info") return LogLevel::kInfo;
    if (value == "warning") return LogLevel::kWarning;
    if (value == "error") return LogLevel::kError;
    if (value == "off") return LogLevel::kOff;
    Fail(name, value, "expected debug|info|warning|error|off");
  }

  /// Call after the last Get*: any argument no Get* consumed — a
  /// misspelled flag, a flag this harness does not take, or a stray
  /// positional — is a hard error.
  void Done() const {
    for (int i = 1; i < argc_; ++i) {
      if (!consumed_[static_cast<size_t>(i)]) {
        std::fprintf(stderr, "FATAL: unrecognized argument '%s'\n", argv_[i]);
        std::exit(2);
      }
    }
  }

 private:
  [[noreturn]] void Fail(std::string_view name, const std::string& value,
                         const char* what) const {
    std::fprintf(stderr, "FATAL: bad value for --%.*s: '%s' (%s)\n",
                 static_cast<int>(name.size()), name.data(), value.c_str(),
                 what);
    std::exit(2);
  }

  bool Find(std::string_view name, std::string* value) const {
    const std::string prefix = "--" + std::string(name) + "=";
    bool found = false;
    // Mark every occurrence consumed but honor the first, so a duplicated
    // flag neither changes behavior nor trips Done().
    for (int i = 1; i < argc_; ++i) {
      const std::string_view arg(argv_[i]);
      if (arg.substr(0, prefix.size()) == prefix) {
        if (!found) *value = std::string(arg.substr(prefix.size()));
        found = true;
        consumed_[static_cast<size_t>(i)] = true;
      }
    }
    return found;
  }

  int argc_;
  char** argv_;
  mutable std::vector<bool> consumed_;
};

/// Aborts with the status message when `status` is not OK.
inline void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", status.ToString().c_str());
    std::abort();
  }
}

/// Unwraps a Result or aborts with its error.
template <typename R>
auto Unwrap(R result) {
  CheckOk(result.status());
  return std::move(result).value();
}

}  // namespace crowdjoin::bench

#endif  // CROWDJOIN_BENCH_BENCH_UTIL_H_
