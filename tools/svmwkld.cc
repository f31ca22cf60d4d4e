// svmwkld — workload trace toolbox (docs/WORKLOADS.md). Recording and
// replaying a workload is svmsim's job (--record-trace / --replay-trace);
// this tool generates seeded synthetic traces (`gen`; same flags and seed
// give a byte-identical file) and inspects trace files (`stats`, `cat`).
// The flag list is kTool's usage text below, the one copy `--help` prints.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/svm/config.h"
#include "src/wkld/synth.h"
#include "src/wkld/trace_file.h"

namespace hlrc {
namespace {

using wkld::Record;

const ToolInfo kTool = {
    "svmwkld",
    "Workload trace toolbox: generate seeded synthetic workloads and inspect\n"
    "workload trace files (docs/WORKLOADS.md). svmsim records a run's\n"
    "workload (--record-trace) and replays a trace under any protocol\n"
    "(--replay-trace). A workload trace is replayable input, distinct from\n"
    "the execution trace timeline svmsim --trace writes.",
    "  gen    --pattern=NAME --out=FILE [--nodes=N] [--page-size=B]\n"
    "         [--pages-per-node=N] [--iterations=N] [--ops=N]\n"
    "         [--write-frac=F] [--locality=F] [--compute-ns=N] [--seed=N]\n"
    "  stats  --in=FILE\n"
    "  cat    --in=FILE [--node=N] [--limit=N]\n",
    "COMMAND [flags]",
};

// Prints `svmwkld: MESSAGE` (when non-empty), the usage text and the pattern
// names, then exits 2.
[[noreturn]] void Usage(const std::string& message = "") {
  if (!message.empty()) {
    std::fprintf(stderr, "%s: %s\n", kTool.name, message.c_str());
  }
  PrintUsage(kTool, stderr);
  std::fprintf(stderr, "patterns:");
  for (const std::string& p : wkld::SynthPatternNames()) {
    std::fprintf(stderr, " %s", p.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

struct Flags {
  std::string pattern;
  std::string in_path;
  std::string out_path;
  wkld::SynthConfig synth;  // gen's generator settings; --pattern parses in CmdGen.
  int node = -1;
  int64_t limit = -1;
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags f;
  wkld::SynthConfig& g = f.synth;
  for (int i = first; i < argc; ++i) {
    const FlagArg a(argv[i], Usage);
    if (a.Has("--pattern=")) {
      f.pattern = a.Value("--pattern=");
    } else if (a.Has("--in=")) {
      f.in_path = a.Value("--in=");
    } else if (a.Has("--out=")) {
      f.out_path = a.Value("--out=");
    } else if (a.Int("--nodes=", &g.nodes, 1)) {
    } else if (a.Int("--page-size=", &g.page_size, 1)) {
    } else if (a.Int("--pages-per-node=", &g.pages_per_node, 1)) {
    } else if (a.Int("--iterations=", &g.iterations, 1)) {
    } else if (a.Int("--ops=", &g.ops_per_iter, 1)) {
    } else if (a.Parsed("--write-frac=", ParseProbability, &g.write_frac, "a fraction in [0, 1]")) {
    } else if (a.Parsed("--locality=", ParseProbability, &g.locality, "a fraction in [0, 1]")) {
    } else if (a.Int("--compute-ns=", &g.compute_ns, 0)) {
    } else if (a.Int("--seed=", &g.seed, 0)) {
    } else if (a.Int("--node=", &f.node, 0)) {
    } else if (a.Int("--limit=", &f.limit, 0)) {
    } else if (!HandleCommonFlag(kTool, a.arg())) {
      std::fprintf(stderr, "unknown flag: %s\n", a.arg().c_str());
      Usage();
    }
  }
  return f;
}

int CmdGen(const Flags& f) {
  if (f.pattern.empty() || f.out_path.empty()) {
    std::fprintf(stderr, "gen needs --pattern and --out\n");
    Usage();
  }
  wkld::SynthConfig cfg = f.synth;
  if (!wkld::ParseSynthPattern(f.pattern, &cfg.pattern)) {
    std::fprintf(stderr, "unknown pattern '%s'\n", f.pattern.c_str());
    Usage();  // Lists the patterns.
  }
  if (const std::string error =
          PageSizeError(cfg.page_size, cfg.shared_bytes, wkld::kMinSynthPageSize);
      !error.empty()) {
    Usage(error);
  }
  wkld::WriteSyntheticTrace(f.out_path, cfg);
  std::printf("synthetic %s trace written to %s (%d nodes, %d iterations, seed %" PRIu64
              ")\n",
              f.pattern.c_str(), f.out_path.c_str(), cfg.nodes, cfg.iterations, cfg.seed);
  return 0;
}

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
      std::printf("[%d] %s", node, wkld::RecordKindName(rec.kind));
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
  if (cmd == "gen") return CmdGen(f);
  if (cmd == "stats") return CmdStats(f);
  if (cmd == "cat") return CmdCat(f);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  Usage();
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
