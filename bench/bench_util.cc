#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.h"
#include "src/metrics/json_writer.h"

namespace hlrc {
namespace bench {
namespace {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

ProtocolKind ParseProtocol(const std::string& s) {
  if (s == "lrc") {
    return ProtocolKind::kLrc;
  }
  if (s == "olrc") {
    return ProtocolKind::kOlrc;
  }
  if (s == "hlrc") {
    return ProtocolKind::kHlrc;
  }
  if (s == "ohlrc") {
    return ProtocolKind::kOhlrc;
  }
  if (s == "erc") {
    return ProtocolKind::kErc;
  }
  if (s == "aurc") {
    return ProtocolKind::kAurc;
  }
  HLRC_CHECK_MSG(false, "unknown protocol '%s'", s.c_str());
  return ProtocolKind::kLrc;
}

[[noreturn]] void Usage(const char* argv0) {
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
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--nodes=", 0) == 0) {
      opts.node_counts.clear();
      for (const std::string& n : Split(value("--nodes="), ',')) {
        opts.node_counts.push_back(std::atoi(n.c_str()));
      }
    } else if (arg.rfind("--scale=", 0) == 0) {
      if (!ParseAppScale(value("--scale="), &opts.scale)) {
        Usage(argv[0]);
      }
    } else if (arg.rfind("--apps=", 0) == 0) {
      opts.apps = Split(value("--apps="), ',');
    } else if (arg.rfind("--protocols=", 0) == 0) {
      opts.protocols.clear();
      for (const std::string& p : Split(value("--protocols="), ',')) {
        opts.protocols.push_back(ParseProtocol(p));
      }
    } else if (arg.rfind("--page-size=", 0) == 0) {
      opts.page_size = std::atoll(value("--page-size=").c_str());
    } else if (arg.rfind("--home=", 0) == 0) {
      if (!ParseHomePolicyName(value("--home="), &opts.home_policy)) {
        Usage(argv[0]);
      }
    } else if (arg.rfind("--fault-drop=", 0) == 0) {
      opts.fault_drop = std::atof(value("--fault-drop=").c_str());
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      opts.fault_seed = static_cast<uint64_t>(
          std::strtoull(value("--fault-seed=").c_str(), nullptr, 10));
    } else if (arg.rfind("--json=", 0) == 0) {
      opts.json_out = value("--json=");
    } else if (arg.rfind("--jobs=", 0) == 0) {
      opts.jobs = std::atoi(value("--jobs=").c_str());
    } else if (arg == "--causal") {
      opts.causal = true;
    } else if (arg == "--reliable") {
      opts.reliable = true;
    } else if (arg == "--coalesce") {
      opts.coalesce = true;
    } else if (arg.rfind("--barrier-arity=", 0) == 0) {
      opts.barrier_arity = std::atoi(value("--barrier-arity=").c_str());
    } else if (arg == "--no-verify") {
      opts.verify = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
    }
  }
  if (opts.apps.empty()) {
    opts.apps = AppNames();
  }
  return opts;
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
  if (opts.coalesce) {
    cfg.network.coalesce = true;
    cfg.protocol.coalesce = true;
    cfg.reliability.piggyback_acks = cfg.reliability.enabled;
  }
  cfg.protocol.barrier_arity = opts.barrier_arity;
  return cfg;
}

AppRunResult RunVerified(const std::string& app_name, const BenchOptions& opts,
                         const SimConfig& cfg) {
  auto app = MakeApp(app_name, opts.scale);
  AppRunResult result = RunApp(*app, cfg);
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

void BenchJson::BeginRow() {
  HLRC_CHECK_MSG(!in_row_, "BeginRow without EndRow");
  rows_.emplace_back();
  in_row_ = true;
}

void BenchJson::Add(const std::string& key, const std::string& v) {
  HLRC_CHECK_MSG(in_row_, "Add outside BeginRow/EndRow");
  rows_.back().push_back({Field::Kind::kString, key, v, 0, 0.0});
}

void BenchJson::Add(const std::string& key, const char* v) { Add(key, std::string(v)); }

void BenchJson::Add(const std::string& key, int64_t v) {
  HLRC_CHECK_MSG(in_row_, "Add outside BeginRow/EndRow");
  rows_.back().push_back({Field::Kind::kInt, key, "", v, 0.0});
}

void BenchJson::Add(const std::string& key, double v) {
  HLRC_CHECK_MSG(in_row_, "Add outside BeginRow/EndRow");
  rows_.back().push_back({Field::Kind::kDouble, key, "", 0, v});
}

void BenchJson::EndRow() {
  HLRC_CHECK_MSG(in_row_, "EndRow without BeginRow");
  in_row_ = false;
}

std::string BenchJson::ToJson() const {
  HLRC_CHECK_MSG(!in_row_, "ToJson with an open row");
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", "hlrc-bench");
  w.KV("version", static_cast<int64_t>(1));
  w.KV("bench", bench_name_);
  w.Key("rows");
  w.BeginArray();
  for (const std::vector<Field>& row : rows_) {
    w.BeginObject();
    for (const Field& f : row) {
      switch (f.kind) {
        case Field::Kind::kString:
          w.KV(f.key, f.s);
          break;
        case Field::Kind::kInt:
          w.KV(f.key, f.i);
          break;
        case Field::Kind::kDouble:
          w.KV(f.key, f.d);
          break;
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void BenchJson::WriteFile(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  HLRC_CHECK_MSG(f != nullptr, "cannot open %s for writing", path.c_str());
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  HLRC_CHECK_MSG(std::fclose(f) == 0 && n == json.size(), "short write to %s", path.c_str());
  std::printf("results written to %s\n", path.c_str());
}

}  // namespace bench
}  // namespace hlrc
