// svmwkld — workload trace toolbox (docs/WORKLOADS.md). Recording and
// replaying a workload is svmsim's job (--record-trace / --replay-trace);
// this tool generates seeded synthetic traces (`gen`; same flags and seed
// give a byte-identical file) and inspects trace files (`stats`, `cat`).
// The flag list is kTool's usage text below, the one copy `--help` prints.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
  std::string pattern;
  std::string in_path;
  std::string out_path;
  int nodes = 8;
  int64_t page_size = 4096;
  int pages_per_node = 4;
  int iterations = 8;
  int ops = 16;
  double write_frac = 0.5;
  double locality = 0.8;
  int64_t compute_ns = 2000;
  uint64_t seed = 42;
  int node = -1;
  int64_t limit = -1;
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    // Value flags: each matcher is true when `arg` is PREFIX=VALUE, and a
    // VALUE that does not parse exits 2 naming the flag (an empty branch
    // below means the matcher already stored the value).
    auto has = [&](const char* p) { return arg.rfind(p, 0) == 0; };
    auto val = [&](const char* p) { return arg.substr(std::strlen(p)); };
    auto bad = [&](const std::string& want) {
      std::fprintf(stderr, "%s: %s: expected %s\n", kTool.name, arg.c_str(), want.c_str());
      Usage();
    };
    auto integer = [&](const char* p, auto* out, auto lo) {
      if (has(p) && !ParseInt(val(p), out, lo)) {
        bad("an integer >= " + std::to_string(lo));
      }
      return has(p);
    };
    auto fraction = [&](const char* p, double* out) {
      if (has(p) && !ParseProbability(val(p), out)) {
        bad("a fraction in [0, 1]");
      }
      return has(p);
    };
    if (has("--pattern=")) {
      f.pattern = val("--pattern=");
    } else if (has("--in=")) {
      f.in_path = val("--in=");
    } else if (has("--out=")) {
      f.out_path = val("--out=");
    } else if (integer("--nodes=", &f.nodes, 1)) {
    } else if (integer("--page-size=", &f.page_size, 1)) {
    } else if (integer("--pages-per-node=", &f.pages_per_node, 1)) {
    } else if (integer("--iterations=", &f.iterations, 1)) {
    } else if (integer("--ops=", &f.ops, 1)) {
    } else if (fraction("--write-frac=", &f.write_frac)) {
    } else if (fraction("--locality=", &f.locality)) {
    } else if (integer("--compute-ns=", &f.compute_ns, 0)) {
    } else if (integer("--seed=", &f.seed, 0)) {
    } else if (integer("--node=", &f.node, 0)) {
    } else if (integer("--limit=", &f.limit, 0)) {
    } else if (!HandleCommonFlag(kTool, arg)) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
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
  wkld::SynthConfig cfg;
  if (!wkld::ParseSynthPattern(f.pattern, &cfg.pattern)) {
    std::fprintf(stderr, "unknown pattern '%s'\n", f.pattern.c_str());
    Usage();  // Lists the patterns.
  }
  cfg.nodes = f.nodes;
  cfg.page_size = f.page_size;
  if (const std::string error =
          PageSizeError(cfg.page_size, cfg.shared_bytes, wkld::kMinSynthPageSize);
      !error.empty()) {
    std::fprintf(stderr, "%s: %s\n", kTool.name, error.c_str());
    Usage();
  }
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
