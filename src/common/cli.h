// Shared CLI vocabulary for the svm* tools and the bench binaries.
//
// Every tool owns its flag grammar: which flags it takes and what they mean.
// What the tools share is the vocabulary inside the flags and the frame
// around them:
//  * value parsers — comma lists, checked integers, reals and probabilities
//    — so every command line accepts and rejects the same spellings (enum
//    names parse through the name tables next to each enum, e.g.
//    src/proto/options.h). The parsers only report success;
//  * one flag matcher, FlagArg, that matches `PREFIX=VALUE` arguments,
//    stores the parsed value and turns a malformed one into the tool's own
//    usage error;
//  * one usage formatter (so --help, usage errors and the docs all show the
//    same text), a common --help/--version handler, and one version string
//    for the whole toolbox. Tools describe themselves with a ToolInfo and
//    route unrecognized or malformed flags through UsageError, which exits 2
//    — the conventional "bad invocation" status tests pin.
#ifndef SRC_COMMON_CLI_H_
#define SRC_COMMON_CLI_H_

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace hlrc {

// Splits a comma-separated list. Empty items are skipped: "a,,b" is
// {"a", "b"} and "" is {}.
std::vector<std::string> SplitList(const std::string& s);

// Checked value parsers. Each reads all of `s` and stores into *out only on
// success: empty, non-numeric and trailing-junk text fails (there is no size
// suffix grammar, so "64k" is an error, not 64), and so does a value outside
// [lo, hi]. Integers are plain decimal; a '-' never wraps into an unsigned.
template <typename Int>
bool ParseInt(const std::string& s, Int* out,
              std::type_identity_t<Int> lo = std::numeric_limits<Int>::min(),
              std::type_identity_t<Int> hi = std::numeric_limits<Int>::max()) {
  Int v{};
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || stop != end || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}
bool ParseReal(const std::string& s, double* out, double lo, double hi);
// A probability: a real in [0, 1].
bool ParseProbability(const std::string& s, double* out);
// A duration in whole microseconds, at least `lo_us` and small enough that
// its nanosecond SimTime does not overflow.
bool ParseMicros(const std::string& s, SimTime* out, int64_t lo_us);

// One command-line argument, matched against `PREFIX=VALUE` flags. Each
// matcher is true when the argument starts with PREFIX and then stores the
// parsed VALUE; a VALUE that does not parse calls `fail` with
// "ARG: expected ...". `fail` must not return: each tool passes its usage
// exit (UsageError, or a tool's own that also exits 2).
class FlagArg {
 public:
  using Fail = void (*)(const std::string& message);

  FlagArg(std::string arg, Fail fail) : arg_(std::move(arg)), fail_(fail) {}

  const std::string& arg() const { return arg_; }
  bool Has(const char* prefix) const { return arg_.starts_with(prefix); }
  // The text after `prefix`; call it once Has(prefix) is true.
  std::string Value(const char* prefix) const { return arg_.substr(std::strlen(prefix)); }

  template <typename I>
  bool Int(const char* prefix, I* out, std::type_identity_t<I> lo) const {
    if (Has(prefix) && !ParseInt(Value(prefix), out, lo)) {
      Reject("an integer >= " + std::to_string(lo));
    }
    return Has(prefix);
  }
  bool Probability(const char* prefix, double* out) const;
  bool Micros(const char* prefix, SimTime* out, int64_t lo_us) const;
  // An enum spelled through its name table (`parse` is e.g. ParseHomePolicyName).
  template <typename T, typename Parse>
  bool Named(const char* prefix, Parse parse, T* out) const {
    return Parsed(prefix, parse, out, "a known name");
  }
  // Any other grammar: `parse(value, out)` is false on a malformed value,
  // reported as "ARG: expected WANT".
  template <typename T, typename Parse>
  bool Parsed(const char* prefix, Parse parse, T* out, const char* want) const {
    if (Has(prefix) && !parse(Value(prefix), out)) {
      Reject(want);
    }
    return Has(prefix);
  }

 private:
  [[noreturn]] void Reject(const std::string& want) const;

  std::string arg_;
  Fail fail_;
};

struct ToolInfo {
  const char* name;     // "svmcheck"
  const char* summary;  // One line: what the tool does.
  const char* usage;    // Flag lines, one per line, two-space indented.
  // Invocation grammar after the tool name; nullptr renders as "[flags]"
  // (subcommand tools pass e.g. "COMMAND [flags]").
  const char* invocation = nullptr;
};

// Toolbox-wide version string ("hlrc-svm X.Y.Z" printed by --version).
const char* ToolVersion();

// Renders `usage: NAME ...` + summary + the tool's flag lines to `out`.
void PrintUsage(const ToolInfo& tool, std::FILE* out);

// Consumes --help/-h (usage to stdout, exit 0) and --version (exit 0).
// Returns false when `arg` is neither, so parsers call it from their
// unknown-flag fallthrough.
bool HandleCommonFlag(const ToolInfo& tool, const std::string& arg);

// Prints `NAME: MESSAGE` and the usage text to stderr, then exits 2.
[[noreturn]] void UsageError(const ToolInfo& tool, const std::string& message);

}  // namespace hlrc

#endif  // SRC_COMMON_CLI_H_
