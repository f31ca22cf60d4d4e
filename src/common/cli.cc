#include "src/common/cli.h"

#include <cstdlib>

namespace hlrc {

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = s.find(',', pos);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) {
      out.push_back(s.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return out;
}

bool ParseReal(const std::string& s, double* out, double lo, double hi) {
  double v = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  // The negated range test also rejects NaN.
  if (s.empty() || ec != std::errc() || stop != end || !(v >= lo && v <= hi)) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseProbability(const std::string& s, double* out) { return ParseReal(s, out, 0.0, 1.0); }

bool ParseMicros(const std::string& s, SimTime* out, int64_t lo_us) {
  int64_t us = 0;
  if (!ParseInt(s, &us, lo_us, std::numeric_limits<SimTime>::max() / Micros(1))) {
    return false;
  }
  *out = Micros(us);
  return true;
}

bool FlagArg::Probability(const char* prefix, double* out) const {
  return Parsed(prefix, ParseProbability, out, "a probability in [0, 1]");
}

bool FlagArg::Micros(const char* prefix, SimTime* out, int64_t lo_us) const {
  if (Has(prefix) && !ParseMicros(Value(prefix), out, lo_us)) {
    Reject("microseconds >= " + std::to_string(lo_us));
  }
  return Has(prefix);
}

void FlagArg::Reject(const std::string& want) const {
  fail_(arg_ + ": expected " + want);
  std::abort();  // `fail` returned.
}

const char* ToolVersion() { return "hlrc-svm 0.7.0"; }

void PrintUsage(const ToolInfo& tool, std::FILE* out) {
  std::fprintf(out, "usage: %s %s\n\n%s\n\nflags:\n%s", tool.name,
               tool.invocation != nullptr ? tool.invocation : "[flags]", tool.summary,
               tool.usage);
  std::fprintf(out,
               "  --help                show this message and exit\n"
               "  --version             print the toolbox version and exit\n");
}

bool HandleCommonFlag(const ToolInfo& tool, const std::string& arg) {
  if (arg == "--help" || arg == "-h") {
    PrintUsage(tool, stdout);
    std::exit(0);
  }
  if (arg == "--version") {
    std::printf("%s %s\n", tool.name, ToolVersion());
    std::exit(0);
  }
  return false;
}

void UsageError(const ToolInfo& tool, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", tool.name, message.c_str());
  PrintUsage(tool, stderr);
  std::exit(2);
}

}  // namespace hlrc
