// Workload capture/replay benchmark (docs/WORKLOADS.md).
//
// Part 1 — fidelity: each application is recorded once (with the trace
// recorder attached) and then replayed from the trace file under the same
// protocol. The replay must land on the identical virtual time and message
// count — the whole point of a trace is that it stands in for the app — and
// the table shows the trace-file cost of that fidelity (size on disk, bytes
// per simulated second).
//
// Part 2 — workload characterization: the six synthetic sharing patterns are
// replayed under each protocol family, the capture/replay counterpart of
// paper_grid's Table 1. Patterns are where protocols separate: single-writer
// barely stresses anything, migratory is lock-ping-pong, false sharing is the
// diff machinery's best case and a write-through protocol's worst.
#include <cstdio>
#include <sys/stat.h>

#include <string>

#include "bench/bench_util.h"
#include "src/wkld/recorder.h"
#include "src/wkld/replay.h"
#include "src/wkld/synth.h"
#include "src/wkld/trace_file.h"

namespace hlrc {
namespace bench {
namespace {

int64_t FileBytes(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : -1;
}

std::string TracePath(const std::string& tag) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/wkld_replay_" + tag + ".wkld";
}

struct RunSig {
  SimTime time = 0;
  int64_t msgs = 0;
  int64_t update_bytes = 0;

  bool operator==(const RunSig& o) const {
    return time == o.time && msgs == o.msgs && update_bytes == o.update_bytes;
  }
};

RunSig Sig(const RunReport& report) {
  const NodeReport t = report.Totals();
  return RunSig{report.total_time, t.traffic.msgs_sent, t.traffic.update_bytes_sent};
}

RunSig RecordApp(const std::string& app_name, const BenchOptions& opts,
                 const SimConfig& cfg, const std::string& path) {
  std::unique_ptr<App> app = MakeApp(app_name, opts.scale);
  CheckAppLimits(*app, cfg);
  System sys(cfg);
  wkld::TraceWriter writer(path, wkld::MakeTraceInfo(cfg, app->name(), "bench"));
  wkld::TraceRecorder recorder(&sys, &writer);
  sys.SetWorkloadObserver(&recorder);
  app->Setup(sys);
  sys.Run(app->Program());
  writer.Finish();
  std::string why;
  if (!app->Verify(sys, &why)) {
    std::fprintf(stderr, "%s failed verification while recording: %s\n",
                 app_name.c_str(), why.c_str());
    std::exit(1);
  }
  return Sig(sys.report());
}

RunSig Replay(const std::string& path, const SimConfig& cfg) {
  std::string error;
  std::unique_ptr<wkld::TraceReplayApp> app = wkld::TraceReplayApp::Open(path, &error);
  if (app == nullptr) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(), error.c_str());
    std::exit(1);
  }
  System sys(cfg);
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  if (!app->Verify(sys, &why)) {
    std::fprintf(stderr, "replay of %s failed verification: %s\n", path.c_str(),
                 why.c_str());
    std::exit(1);
  }
  return Sig(sys.report());
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  const int nodes = opts.node_counts.front();
  JsonWriter json = OpenBenchJson("wkld_replay");

  std::printf("=== Workload capture/replay (nodes=%d) ===\n\n", nodes);

  Table fidelity("Record -> replay fidelity (HLRC)");
  fidelity.SetHeader({"App", "T_direct", "T_replay", "Match", "Trace", "Msgs"});
  for (const std::string& app : opts.apps) {
    const SimConfig cfg = BaseConfig(opts, ProtocolKind::kHlrc, nodes);
    const std::string path = TracePath(app);
    const RunSig direct = RecordApp(app, opts, cfg, path);
    const RunSig replayed = Replay(path, cfg);
    const int64_t bytes = FileBytes(path);
    fidelity.AddRow({app, FmtSeconds(direct.time), FmtSeconds(replayed.time),
                     direct == replayed ? "exact" : "DRIFT", Table::FmtBytes(bytes),
                     Table::Fmt(direct.msgs)});
    json.BeginObject();
    json.KV("section", "fidelity");
    json.KV("app", app);
    json.KV("nodes", nodes);
    json.KV("time_direct", direct.time);
    json.KV("time_replay", replayed.time);
    json.KV("exact", direct == replayed ? 1 : 0);
    json.KV("trace_bytes", bytes);
    json.EndObject();
    std::remove(path.c_str());
    std::fflush(stdout);
  }
  fidelity.Print();
  std::printf("\n");

  Table patterns("Synthetic sharing patterns: virtual time by protocol");
  std::vector<std::string> header = {"Pattern"};
  for (ProtocolKind kind : opts.protocols) {
    header.push_back(ProtocolName(kind));
  }
  header.push_back("Msgs/" + std::string(ProtocolName(opts.protocols.back())));
  patterns.SetHeader(header);
  for (const std::string& name : wkld::SynthPatternNames()) {
    wkld::SynthPattern pattern;
    wkld::ParseSynthPattern(name, &pattern);
    wkld::SynthConfig scfg;
    scfg.pattern = pattern;
    scfg.nodes = nodes;
    std::vector<std::string> row = {name};
    RunSig last;
    for (ProtocolKind kind : opts.protocols) {
      std::unique_ptr<App> app = wkld::MakeSyntheticApp(scfg);
      const SimConfig cfg = BaseConfig(opts, kind, nodes);
      CheckAppLimits(*app, cfg);
      const AppRunResult r = RunApp(*app, cfg);
      if (!r.verified) {
        std::fprintf(stderr, "synth-%s failed under %s: %s\n", name.c_str(),
                     ProtocolName(kind), r.why.c_str());
        std::exit(1);
      }
      last = Sig(r.report);
      row.push_back(FmtSeconds(last.time));
      json.BeginObject();
      json.KV("section", "synthetic");
      json.KV("pattern", name);
      json.KV("protocol", ProtocolName(kind));
      json.KV("nodes", nodes);
      json.KV("time", last.time);
      json.KV("msgs", last.msgs);
      json.KV("update_bytes", last.update_bytes);
      json.EndObject();
      std::fflush(stdout);
    }
    row.push_back(Table::Fmt(last.msgs));
    patterns.AddRow(row);
  }
  patterns.Print();

  if (!opts.json_out.empty()) {
    WriteBenchJson(json, opts.json_out);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::bench::Main(argc, argv); }
