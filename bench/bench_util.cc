#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.h"
#include "src/common/cli.h"

namespace hlrc {
namespace bench {
namespace {

// argv[0], for messages printed after ParseArgs.
const char* program = "bench";

// Prints `message` (when non-empty) and the usage text, then exits 2.
[[noreturn]] void Usage(const char* argv0, const std::string& message = "") {
  if (!message.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  }
  std::fprintf(stderr,
               "usage: %s [--nodes=8,32,64] [--scale=tiny|default|paper]\n"
               "          [--apps=lu,sor,water-nsq,water-sp,raytrace]\n"
               "          [--protocols=lrc,olrc,hlrc,ohlrc] [--page-size=N]\n"
               "          [--home=block|round-robin|single-node] [--no-verify]\n"
               "          [--fault-drop=P] [--fault-seed=N] [--json=FILE] [--jobs=N]\n"
               "          [--causal] [--reliable] [--coalesce] [--barrier-arity=N]\n",
               argv0);
  std::exit(2);
}

}  // namespace

BenchOptions ParseArgs(int argc, char** argv) {
  program = argv[0];
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Value flags: each matcher is true when `arg` is PREFIX=VALUE, and a
    // VALUE that does not parse prints usage and exits 2 naming the flag (an
    // empty branch below means the matcher already stored the value).
    auto has = [&](const char* p) { return arg.rfind(p, 0) == 0; };
    auto value = [&](const char* p) { return arg.substr(std::strlen(p)); };
    auto bad = [&](const std::string& want) { Usage(argv[0], arg + ": expected " + want); };
    auto integer = [&](const char* p, auto* out, auto lo) {
      if (has(p) && !ParseInt(value(p), out, lo)) {
        bad("an integer >= " + std::to_string(lo));
      }
      return has(p);
    };
    if (has("--nodes=")) {
      opts.node_counts.clear();
      for (const std::string& n : SplitList(value("--nodes="))) {
        if (!ParseInt(n, &opts.node_counts.emplace_back(), 1)) {
          bad("a list of positive node counts");
        }
      }
      if (opts.node_counts.empty()) {
        bad("a list of positive node counts");
      }
    } else if (has("--scale=")) {
      if (!ParseAppScale(value("--scale="), &opts.scale)) {
        bad("tiny, default or paper");
      }
    } else if (has("--apps=")) {
      opts.apps = SplitList(value("--apps="));
      const std::vector<std::string> known = RegisteredAppNames();
      for (const std::string& app : opts.apps) {
        if (std::find(known.begin(), known.end(), app) == known.end()) {
          Usage(argv[0], "unknown app '" + app + "'");
        }
      }
      if (opts.apps.empty()) {
        bad("a list of application names");
      }
    } else if (has("--protocols=")) {
      opts.protocols.clear();
      if (!ParseProtocolFlags(value("--protocols="), &opts.protocols)) {
        bad("a list of protocols: lrc | olrc | hlrc | ohlrc | erc | aurc");
      }
    } else if (integer("--page-size=", &opts.page_size, 1)) {
    } else if (has("--home=")) {
      if (!ParseHomePolicyName(value("--home="), &opts.home_policy)) {
        bad("block, round-robin or single-node");
      }
    } else if (has("--fault-drop=")) {
      if (!ParseProbability(value("--fault-drop="), &opts.fault_drop)) {
        bad("a probability in [0, 1]");
      }
    } else if (integer("--fault-seed=", &opts.fault_seed, 0)) {
    } else if (has("--json=")) {
      opts.json_out = value("--json=");
    } else if (integer("--jobs=", &opts.jobs, 0)) {
    } else if (arg == "--causal") {
      opts.causal = true;
    } else if (arg == "--reliable") {
      opts.reliable = true;
    } else if (arg == "--coalesce") {
      opts.coalesce = true;
    } else if (integer("--barrier-arity=", &opts.barrier_arity, 0)) {
    } else if (arg == "--no-verify") {
      opts.verify = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
    } else {
      Usage(argv[0], "unknown flag: " + arg);
    }
  }
  if (opts.apps.empty()) {
    opts.apps = AppNames();
  }
  const SimConfig cfg = BaseConfig(opts, opts.protocols.front(), opts.node_counts.front());
  if (const std::string error = cfg.Validate(); !error.empty()) {
    Usage(argv[0], error);
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
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.page_size = opts.page_size;
  cfg.shared_bytes = 256ll << 20;  // Mirrors are lazily backed; size generously.
  cfg.protocol.kind = kind;
  cfg.protocol.home_policy = opts.home_policy;
  if (opts.fault_drop > 0) {
    cfg.fault.drop_prob = opts.fault_drop;
    cfg.fault.seed = opts.fault_seed;
    cfg.reliability.enabled = true;
  }
  if (opts.reliable) {
    cfg.reliability.enabled = true;
  }
  cfg.network.coalesce = opts.coalesce;
  cfg.protocol.barrier_arity = opts.barrier_arity;
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

std::string FmtSeconds(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ToSeconds(t));
  return buf;
}

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
