#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/cli.h"

namespace hlrc {
namespace bench {
namespace {

// argv[0], for usage and error messages.
const char* program = "bench";

// Prints the usage text: after `message` on stderr, exiting 2, or for --help
// (no message) on stdout, exiting 0.
[[noreturn]] void Usage(const std::string& message = "") {
  if (!message.empty()) {
    std::fprintf(stderr, "%s: %s\n", program, message.c_str());
  }
  std::fprintf(message.empty() ? stdout : stderr,
               "usage: %s [--nodes=8,32,64] [--scale=tiny|default|paper]\n"
               "          [--apps=lu,sor,water-nsq,water-sp,raytrace]\n"
               "          [--protocols=lrc,olrc,hlrc,ohlrc] [--page-size=N]\n"
               "          [--home=block|round-robin|single-node] [--no-verify]\n"
               "          [--fault-drop=P] [--fault-seed=N] [--json=FILE] [--jobs=N]\n"
               "          [--causal] [--reliable] [--coalesce]\n",
               program);
  std::exit(message.empty() ? 0 : 2);
}

// A comma list of positive node counts, at least one.
bool ParseNodeCounts(const std::string& s, std::vector<int>* out) {
  out->clear();
  for (const std::string& n : SplitList(s)) {
    if (!ParseInt(n, &out->emplace_back(), 1)) {
      return false;
    }
  }
  return !out->empty();
}

}  // namespace

BenchOptions ParseArgs(int argc, char** argv) {
  program = argv[0];
  BenchOptions opts;
  SimConfig& base = opts.base;
  for (int i = 1; i < argc; ++i) {
    const FlagArg f(argv[i], Usage);
    const std::string& arg = f.arg();
    if (f.Parsed("--nodes=", ParseNodeCounts, &opts.node_counts,
                 "a list of positive node counts")) {
    } else if (f.Parsed("--scale=", ParseAppScale, &opts.scale, "tiny, default or paper")) {
    } else if (f.Has("--apps=")) {
      opts.apps = SplitList(f.Value("--apps="));
      const std::vector<std::string> known = RegisteredAppNames();
      for (const std::string& app : opts.apps) {
        if (std::find(known.begin(), known.end(), app) == known.end()) {
          Usage("unknown app '" + app + "'");
        }
      }
      if (opts.apps.empty()) {
        Usage(arg + ": expected a list of application names");
      }
    } else if (f.Has("--protocols=")) {
      opts.protocols.clear();
      f.Parsed("--protocols=", ParseProtocolFlags, &opts.protocols,
               "a list of protocols: lrc | olrc | hlrc | ohlrc | erc | aurc");
    } else if (f.Int("--page-size=", &base.page_size, 1)) {
    } else if (f.Parsed("--home=", ParseHomePolicyName, &base.protocol.home_policy,
                        "block, round-robin or single-node")) {
    } else if (f.Probability("--fault-drop=", &base.fault.drop_prob)) {
    } else if (f.Int("--fault-seed=", &base.fault.seed, 0)) {
    } else if (f.Has("--json=")) {
      opts.json_out = f.Value("--json=");
    } else if (f.Int("--jobs=", &opts.jobs, 0)) {
    } else if (arg == "--causal") {
      opts.causal = true;
    } else if (arg == "--reliable") {
      base.reliability.enabled = true;
    } else if (arg == "--coalesce") {
      base.network.coalesce = true;
    } else if (arg == "--no-verify") {
      opts.verify = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
    } else {
      Usage("unknown flag: " + arg);
    }
  }
  if (opts.apps.empty()) {
    opts.apps = AppNames();
  }
  if (const std::string error = base.Validate(); !error.empty()) {
    Usage(error);
  }
  return opts;
}

void CheckAppLimits(const App& app, const SimConfig& cfg) {
  if (const std::string error = app.ConfigError(cfg); !error.empty()) {
    std::fprintf(stderr, "%s: %s\n", program, error.c_str());
    std::fflush(stdout);
    // _Exit, not exit: the run may be on a ParallelMap worker, where exit's
    // static destructors would race the other workers' runs.
    std::_Exit(2);
  }
}

SimConfig BaseConfig(const BenchOptions& opts, ProtocolKind kind, int nodes) {
  SimConfig cfg = opts.base;
  cfg.nodes = nodes;
  cfg.protocol.kind = kind;
  return cfg;
}

AppRunResult RunVerified(const std::string& app_name, const BenchOptions& opts,
                         const SimConfig& cfg, CritPathSummary* crit) {
  auto app = MakeApp(app_name, opts.scale);
  CheckAppLimits(*app, cfg);
  System sys(cfg);
  if (crit != nullptr) {
    sys.EnableSpans(1 << 22);
  }
  app->Setup(sys);
  sys.Run(app->Program());
  AppRunResult result;
  result.report = sys.report();
  result.verified = app->Verify(sys, &result.why);
  if (crit != nullptr) {
    *crit = AttributeCriticalPaths(sys.spans()->spans());
  }
  if (opts.verify) {
    HLRC_CHECK_MSG(result.verified, "%s failed verification under %s at %d nodes: %s",
                   app_name.c_str(), ProtocolName(cfg.protocol.kind), cfg.nodes,
                   result.why.c_str());
  }
  return result;
}

SimTime SequentialTime(const std::string& app_name, const BenchOptions& opts) {
  const SimConfig cfg = BaseConfig(opts, ProtocolKind::kHlrc, 1);
  const AppRunResult result = RunVerified(app_name, opts, cfg);
  // Pure computation: what a uniprocessor (no SVM) would take.
  return result.report.nodes[0].cpu_busy.Get(BusyCat::kCompute);
}

std::string FmtSeconds(SimTime t) { return Table::Fmt(ToSeconds(t), 2); }

JsonWriter OpenBenchJson(const std::string& bench_name) {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "hlrc-bench");
  json.KV("version", 1);
  json.KV("bench", bench_name);
  json.Key("rows");
  json.BeginArray();
  return json;
}

void WriteBenchJson(JsonWriter& json, const std::string& path) {
  json.EndArray();
  json.EndObject();
  std::string error;
  HLRC_CHECK_MSG(json.WriteFile(path, &error), "%s", error.c_str());
  std::printf("results written to %s\n", path.c_str());
}

}  // namespace bench
}  // namespace hlrc
