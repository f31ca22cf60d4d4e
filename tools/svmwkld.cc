// svmwkld — workload trace toolbox (docs/WORKLOADS.md).
//
//   svmwkld record --app=sor --out=sor.wkld [--protocol=P] [--nodes=N]
//                  [--scale=S] [--page-size=B] [--seed=N]
//       Run an application with the workload-trace recorder attached and
//       write the captured workload. The run itself is unchanged by
//       recording.
//
//   svmwkld replay --in=FILE [--protocol=P] [--nodes=N] [--page-size=B]
//       Re-execute a captured workload trace (any protocol; topology
//       defaults to the trace header) and print the run's vital signs.
//
//   svmwkld gen --pattern=NAME --out=FILE [--nodes=N] [--page-size=B]
//               [--pages-per-node=N] [--iterations=N] [--ops=N]
//               [--write-frac=F] [--locality=F] [--compute-ns=N] [--seed=N]
//       Generate a seeded synthetic workload trace. Same flags + same seed
//       => byte-identical file.
//
//   svmwkld stats --in=FILE
//       Print the header and per-node record/byte counts.
//
//   svmwkld cat --in=FILE [--node=N] [--limit=N]
//       Dump records in a readable text form.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/cli.h"
#include "src/common/rng.h"
#include "src/proto/options.h"
#include "src/svm/system.h"
#include "src/wkld/recorder.h"
#include "src/wkld/replay.h"
#include "src/wkld/synth.h"
#include "src/wkld/trace_file.h"

namespace hlrc {
namespace {

using wkld::Record;

const ToolInfo kTool = {
    "svmwkld",
    "Workload trace toolbox: record an application's shared-access/sync\n"
    "workload, replay a captured workload trace under any protocol, generate\n"
    "seeded synthetic workloads, and inspect workload trace files\n"
    "(docs/WORKLOADS.md). A workload trace is replayable input, distinct\n"
    "from the execution trace timeline svmsim --trace writes.",
    "  record --app=NAME --out=FILE [--protocol=P] [--nodes=N]\n"
    "         [--scale=S] [--page-size=B] [--seed=N]\n"
    "  replay --in=FILE [--protocol=P] [--nodes=N] [--page-size=B]\n"
    "  gen    --pattern=NAME --out=FILE [--nodes=N] [--page-size=B]\n"
    "         [--pages-per-node=N] [--iterations=N] [--ops=N]\n"
    "         [--write-frac=F] [--locality=F] [--compute-ns=N] [--seed=N]\n"
    "  stats  --in=FILE\n"
    "  cat    --in=FILE [--node=N] [--limit=N]\n",
    "COMMAND [flags]",
};

[[noreturn]] void Usage() {
  PrintUsage(kTool, stderr);
  std::fprintf(stderr, "patterns:");
  for (const std::string& p : wkld::SynthPatternNames()) {
    std::fprintf(stderr, " %s", p.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

struct Flags {
  std::string app;
  std::string pattern;
  std::string in_path;
  std::string out_path;
  std::string protocol = "hlrc";
  AppScale scale = AppScale::kTiny;
  int nodes = 8;
  bool nodes_set = false;
  int64_t page_size = 4096;
  bool page_size_set = false;
  int pages_per_node = 4;
  int iterations = 8;
  int ops = 16;
  double write_frac = 0.5;
  double locality = 0.8;
  int64_t compute_ns = 2000;
  uint64_t seed = 42;
  bool seed_set = false;
  int node = -1;
  int64_t limit = -1;
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* p) { return arg.substr(std::strlen(p)); };
    if (arg.rfind("--app=", 0) == 0) {
      f.app = val("--app=");
    } else if (arg.rfind("--pattern=", 0) == 0) {
      f.pattern = val("--pattern=");
    } else if (arg.rfind("--in=", 0) == 0) {
      f.in_path = val("--in=");
    } else if (arg.rfind("--out=", 0) == 0) {
      f.out_path = val("--out=");
    } else if (arg.rfind("--protocol=", 0) == 0) {
      f.protocol = val("--protocol=");
    } else if (arg.rfind("--scale=", 0) == 0) {
      if (!ParseAppScale(val("--scale="), &f.scale)) {
        std::fprintf(stderr, "unknown scale '%s'\n", val("--scale=").c_str());
        Usage();
      }
    } else if (arg.rfind("--nodes=", 0) == 0) {
      f.nodes = std::atoi(val("--nodes=").c_str());
      f.nodes_set = true;
    } else if (arg.rfind("--page-size=", 0) == 0) {
      f.page_size = std::atoll(val("--page-size=").c_str());
      f.page_size_set = true;
    } else if (arg.rfind("--pages-per-node=", 0) == 0) {
      f.pages_per_node = std::atoi(val("--pages-per-node=").c_str());
    } else if (arg.rfind("--iterations=", 0) == 0) {
      f.iterations = std::atoi(val("--iterations=").c_str());
    } else if (arg.rfind("--ops=", 0) == 0) {
      f.ops = std::atoi(val("--ops=").c_str());
    } else if (arg.rfind("--write-frac=", 0) == 0) {
      f.write_frac = std::atof(val("--write-frac=").c_str());
    } else if (arg.rfind("--locality=", 0) == 0) {
      f.locality = std::atof(val("--locality=").c_str());
    } else if (arg.rfind("--compute-ns=", 0) == 0) {
      f.compute_ns = std::atoll(val("--compute-ns=").c_str());
    } else if (arg.rfind("--seed=", 0) == 0) {
      f.seed = std::strtoull(val("--seed=").c_str(), nullptr, 10);
      f.seed_set = true;
    } else if (arg.rfind("--node=", 0) == 0) {
      f.node = std::atoi(val("--node=").c_str());
    } else if (arg.rfind("--limit=", 0) == 0) {
      f.limit = std::atoll(val("--limit=").c_str());
    } else if (!HandleCommonFlag(kTool, arg)) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
    }
  }
  return f;
}

bool ParseProtocol(const std::string& s, ProtocolKind* kind) {
  if (s == "lrc") *kind = ProtocolKind::kLrc;
  else if (s == "olrc") *kind = ProtocolKind::kOlrc;
  else if (s == "hlrc") *kind = ProtocolKind::kHlrc;
  else if (s == "ohlrc") *kind = ProtocolKind::kOhlrc;
  else if (s == "erc") *kind = ProtocolKind::kErc;
  else if (s == "aurc") *kind = ProtocolKind::kAurc;
  else return false;
  return true;
}

void PrintRunVitals(const System& sys, const App& app, bool verified,
                    const std::string& why) {
  const RunReport& report = sys.report();
  const NodeReport totals = report.Totals();
  std::printf("%s: virtual time %.6f s, %" PRId64 " messages, %" PRId64
              " page fetches, %" PRId64 " diffs, verification %s%s\n",
              app.name().c_str(), ToSeconds(report.total_time), totals.traffic.msgs_sent,
              totals.proto.page_fetches, totals.proto.diffs_created,
              verified ? "OK" : "FAILED ", verified ? "" : why.c_str());
}

int CmdRecord(const Flags& f) {
  if (f.app.empty() || f.out_path.empty()) {
    std::fprintf(stderr, "record needs --app and --out\n");
    Usage();
  }
  ProtocolKind kind;
  if (!ParseProtocol(f.protocol, &kind)) {
    std::fprintf(stderr, "unknown protocol '%s'\n", f.protocol.c_str());
    return 2;
  }
  SimConfig cfg;
  cfg.nodes = f.nodes;
  cfg.page_size = f.page_size;
  cfg.shared_bytes = 256ll << 20;
  cfg.seed = f.seed;
  cfg.protocol.kind = kind;
  Rng root(cfg.seed);
  const uint64_t app_seed = root.NextU64();
  auto app = f.seed_set ? TryMakeApp(f.app, f.scale, app_seed) : TryMakeApp(f.app, f.scale);
  if (app == nullptr) {
    std::fprintf(stderr, "unknown app '%s'; registered apps:", f.app.c_str());
    for (const std::string& name : RegisteredAppNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  System sys(cfg);
  const std::string meta =
      std::string("protocol=") + ProtocolName(kind) + " seed=" + std::to_string(cfg.seed);
  wkld::TraceWriter writer(f.out_path, wkld::MakeTraceInfo(cfg, app->name(), meta));
  wkld::TraceRecorder recorder(&sys, &writer);
  sys.SetWorkloadObserver(&recorder);
  app->Setup(sys);
  sys.Run(app->Program());
  writer.Finish();

  std::string why;
  const bool verified = app->Verify(sys, &why);
  PrintRunVitals(sys, *app, verified, why);
  std::printf("workload trace written to %s\n", f.out_path.c_str());
  return verified ? 0 : 1;
}

int CmdReplay(const Flags& f) {
  if (f.in_path.empty()) {
    std::fprintf(stderr, "replay needs --in\n");
    Usage();
  }
  ProtocolKind kind;
  if (!ParseProtocol(f.protocol, &kind)) {
    std::fprintf(stderr, "unknown protocol '%s'\n", f.protocol.c_str());
    return 2;
  }
  std::string err;
  auto app = wkld::TraceReplayApp::Open(f.in_path, &err);
  if (app == nullptr) {
    std::fprintf(stderr, "cannot replay: %s\n", err.c_str());
    return 2;
  }
  SimConfig cfg;
  cfg.nodes = f.nodes_set ? f.nodes : app->info().nodes;
  cfg.page_size = f.page_size_set ? f.page_size : app->info().page_size;
  cfg.shared_bytes = app->info().shared_bytes > 0 ? app->info().shared_bytes : 256ll << 20;
  cfg.protocol.kind = kind;
  System sys(cfg);
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  const bool verified = app->Verify(sys, &why);
  PrintRunVitals(sys, *app, verified, why);
  return verified ? 0 : 1;
}

int CmdGen(const Flags& f) {
  if (f.pattern.empty() || f.out_path.empty()) {
    std::fprintf(stderr, "gen needs --pattern and --out\n");
    Usage();
  }
  wkld::SynthConfig cfg;
  if (!wkld::ParseSynthPattern(f.pattern, &cfg.pattern)) {
    std::fprintf(stderr, "unknown pattern '%s'; patterns:", f.pattern.c_str());
    for (const std::string& p : wkld::SynthPatternNames()) {
      std::fprintf(stderr, " %s", p.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  cfg.nodes = f.nodes;
  cfg.page_size = f.page_size;
  cfg.pages_per_node = f.pages_per_node;
  cfg.iterations = f.iterations;
  cfg.ops_per_iter = f.ops;
  cfg.write_frac = f.write_frac;
  cfg.locality = f.locality;
  cfg.compute_ns = f.compute_ns;
  cfg.seed = f.seed;
  wkld::WriteSyntheticTrace(f.out_path, cfg);
  std::printf("synthetic %s trace written to %s (%d nodes, %d iterations, seed %" PRIu64
              ")\n",
              f.pattern.c_str(), f.out_path.c_str(), cfg.nodes, cfg.iterations, cfg.seed);
  return 0;
}

const char* KindLabel(Record::Kind kind) { return wkld::RecordKindName(kind); }

int CmdStats(const Flags& f) {
  if (f.in_path.empty()) {
    std::fprintf(stderr, "stats needs --in\n");
    Usage();
  }
  std::string err;
  auto reader = wkld::TraceReader::Open(f.in_path, &err);
  if (reader == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const wkld::TraceInfo& info = reader->info();
  std::printf("trace %s\n  app: %s\n  meta: %s\n  nodes: %d\n  page size: %" PRId64
              "\n  shared bytes: %" PRId64 "\n  allocations: %zu\n",
              f.in_path.c_str(), info.app.c_str(), info.meta.c_str(), info.nodes,
              info.page_size, info.shared_bytes, info.allocs.size());
  int64_t grand_records = 0;
  int64_t grand_write_bytes = 0;
  for (int node = 0; node < info.nodes; ++node) {
    auto stream = reader->OpenStream(node, &err);
    if (stream == nullptr) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    int64_t counts[9] = {0};
    int64_t access_bytes = 0;
    int64_t write_bytes = 0;
    Record rec;
    while (stream->Next(&rec, &err)) {
      ++counts[static_cast<int>(rec.kind)];
      ++grand_records;
      for (const AccessRange& r : rec.ranges) {
        access_bytes += r.bytes;
      }
      for (const wkld::WriteRun& run : rec.runs) {
        write_bytes += static_cast<int64_t>(run.bytes.size());
      }
    }
    if (!err.empty()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    grand_write_bytes += write_bytes;
    std::printf("  node %d: compute=%" PRId64 " access=%" PRId64 " writes=%" PRId64
                " lock=%" PRId64 "/%" PRId64 " barrier=%" PRId64 " phase=%" PRId64
                " (access %" PRId64 " B, stored %" PRId64 " B)\n",
                node, counts[1], counts[2], counts[3], counts[4], counts[5], counts[6],
                counts[7], access_bytes, write_bytes);
  }
  std::printf("  total: %" PRId64 " records, %" PRId64 " stored bytes\n", grand_records,
              grand_write_bytes);
  return 0;
}

int CmdCat(const Flags& f) {
  if (f.in_path.empty()) {
    std::fprintf(stderr, "cat needs --in\n");
    Usage();
  }
  std::string err;
  auto reader = wkld::TraceReader::Open(f.in_path, &err);
  if (reader == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const wkld::TraceInfo& info = reader->info();
  for (const wkld::AllocEntry& a : info.allocs) {
    std::printf("ALLOC addr=0x%" PRIx64 " bytes=%" PRId64 "%s\n", a.addr, a.bytes,
                a.page_aligned ? " page-aligned" : "");
  }
  int64_t printed = 0;
  for (int node = 0; node < info.nodes; ++node) {
    if (f.node >= 0 && node != f.node) {
      continue;
    }
    auto stream = reader->OpenStream(node, &err);
    if (stream == nullptr) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    Record rec;
    while (stream->Next(&rec, &err)) {
      if (f.limit >= 0 && printed >= f.limit) {
        std::printf("... (limit reached)\n");
        return 0;
      }
      ++printed;
      std::printf("[%d] %s", node, KindLabel(rec.kind));
      switch (rec.kind) {
        case Record::Kind::kCompute:
          std::printf(" %" PRId64 " ns", rec.duration_ns);
          break;
        case Record::Kind::kAccess:
          for (const AccessRange& r : rec.ranges) {
            std::printf(" %s[0x%" PRIx64 "+%" PRId64 "]", r.write ? "W" : "R", r.addr,
                        r.bytes);
          }
          break;
        case Record::Kind::kWrites:
          for (const wkld::WriteRun& run : rec.runs) {
            std::printf(" [0x%" PRIx64 "+%zu]", run.addr, run.bytes.size());
          }
          break;
        case Record::Kind::kLock:
        case Record::Kind::kUnlock:
        case Record::Kind::kBarrier:
        case Record::Kind::kPhase:
          std::printf(" %" PRId64, rec.sync_id);
          break;
        case Record::Kind::kEnd:
          break;
      }
      std::printf("\n");
    }
    if (!err.empty()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
  }
  const std::string cmd = argv[1];
  HandleCommonFlag(kTool, cmd);  // `svmwkld --help` / `--version` with no command.
  const Flags f = ParseFlags(argc, argv, 2);
  if (cmd == "record") return CmdRecord(f);
  if (cmd == "replay") return CmdReplay(f);
  if (cmd == "gen") return CmdGen(f);
  if (cmd == "stats") return CmdStats(f);
  if (cmd == "cat") return CmdCat(f);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  Usage();
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
