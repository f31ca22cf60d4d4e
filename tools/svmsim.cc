// svmsim — command-line driver for the HLRC shared-virtual-memory simulator.
//
// Runs one benchmark application under one protocol and prints the full
// paper-style report: time breakdown, operation counts, traffic, protocol
// memory, and optionally a Chrome trace.
//
//   svmsim --app=water-nsq --protocol=hlrc --nodes=32
//   svmsim --app=lu --protocol=lrc --nodes=64 --scale=paper --trace=lu.json
//   svmsim --list
//
// The flag list is kTool's usage text below, the one copy `--help` prints;
// docs/WORKLOADS.md, docs/OBSERVABILITY.md and docs/FAULTS.md cover the
// workload, observability and fault flags in depth.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/apps/app.h"
#include "src/common/cli.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/fuzz/coverage.h"
#include "src/fault/fault_plan.h"
#include "src/svm/run_summary.h"
#include "src/svm/system.h"
#include "src/tracing/span.h"
#include "src/wkld/recorder.h"
#include "src/wkld/replay.h"
#include "src/wkld/trace_file.h"

namespace hlrc {
namespace {

// Everything the run itself uses lives in `cfg`; the other fields are the
// tool's own (what to run and what to print), plus the markers the replay
// defaults and the seed derivation need.
struct Options {
  SimConfig cfg;
  std::string app = "sor";
  bool app_set = false;
  std::string record_trace_path;
  std::string replay_trace_path;
  bool nodes_set = false;
  bool page_size_set = false;
  AppScale scale = AppScale::kDefault;
  std::string trace_path;
  std::string metrics_path;
  SimTime sample_interval = Millis(1);
  bool per_node = false;
  bool verbose = false;
  bool verify = true;
  bool seed_set = false;
  bool fault_seed_set = false;
  bool coverage = false;
};

const ToolInfo kTool = {
    "svmsim",
    "Runs one benchmark application under one SVM protocol and prints the\n"
    "paper-style report (time breakdown, operation counts, traffic).",
    "  --app=NAME            application to run (--list prints the names)\n"
    "  --protocol=NAME       lrc | olrc | hlrc | ohlrc | erc | aurc\n"
    "  --nodes=N             node count (default 8)\n"
    "  --scale=S             tiny | default | paper\n"
    "  --page-size=BYTES     SVM page size (default 4096)\n"
    "  --home=POLICY         block | round-robin | single-node\n"
    "  --diff-policy=P       eager | lazy (homeless protocols)\n"
    "  --gc-threshold=BYTES  homeless GC trigger (default 4 MiB)\n"
    "  --migrate-homes       enable dynamic home migration (home-based)\n"
    "  --trace=FILE.json     write a chrome://tracing execution trace (span\n"
    "                        timeline; distinct from a workload trace)\n"
    "  --per-node            print the per-node breakdown table\n"
    "  --no-verify           skip result verification\n"
    "  --verbose             print a host wall-clock summary\n"
    "  --seed=N              root seed (app inputs + fault injector)\n"
    "  --record-trace=FILE   record the run's workload trace (shared accesses\n"
    "                        and sync; replayable input, not a timeline)\n"
    "  --replay-trace=FILE   replay a recorded workload trace instead of an app\n"
    "  --metrics-out=FILE    write a versioned JSON run summary (includes the\n"
    "                        causal-span section read by svmprof)\n"
    "  --sample-interval=US  metrics sampler period (default 1000)\n"
    "  --coverage            collect protocol-state coverage; printed after\n"
    "                        the report and exported in --metrics-out\n"
    "  --fault-drop=P --fault-dup=P --fault-delay=P --fault-corrupt=P\n"
    "                        per-message fault probabilities\n"
    "  --fault-seed=N        injector seed (default: derived from --seed)\n"
    "  --partition=a-b@t0..t1  partition node lists a and b during [t0,t1) ms\n"
    "  --reliable            enable ack/retransmit delivery (implied by faults)\n"
    "  --retry-timeout=US    retransmit timeout (default 10000)\n"
    "  --retry-max=N         retransmissions per message before aborting\n"
    "  --coalesce            coalesced wire plane: same-tick sends to one peer\n"
    "                        packed into multi-part frames, acks piggybacked on\n"
    "                        data (with --reliable), page requests combined at\n"
    "                        the home, barriers over a 4-ary combining tree\n"
    "  --list                print application and protocol names\n",
};

// Peak resident set size of this process, in bytes (0 when unavailable).
int64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<int64_t>(ru.ru_maxrss);  // Bytes on macOS.
#else
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux.
#endif
#else
  return 0;
#endif
}

Options Parse(int argc, char** argv) {
  Options o;
  SimConfig& cfg = o.cfg;
  cfg.shared_bytes = 256ll << 20;  // Mirrors are lazily backed; size generously.
  for (int i = 1; i < argc; ++i) {
    const FlagArg f(argv[i], [](const std::string& m) { UsageError(kTool, m); });
    const std::string& arg = f.arg();
    if (arg == "--list") {
      std::printf("applications:");
      for (const std::string& a : RegisteredAppNames()) {
        std::printf(" %s", a.c_str());
      }
      std::printf("\nprotocols:");
      for (const ProtocolSpelling& p : kProtocolSpellings) {
        std::printf(" %s", p.flag);
      }
      std::printf("\n");
      std::exit(0);
    } else if (f.Has("--app=")) {
      o.app = f.Value("--app=");
      o.app_set = true;
    } else if (f.Has("--record-trace=")) {
      o.record_trace_path = f.Value("--record-trace=");
    } else if (f.Has("--replay-trace=")) {
      o.replay_trace_path = f.Value("--replay-trace=");
    } else if (f.Named("--protocol=", ParseProtocolFlag, &cfg.protocol.kind)) {
    } else if (f.Int("--nodes=", &cfg.nodes, 1)) {
      o.nodes_set = true;
    } else if (f.Named("--scale=", ParseAppScale, &o.scale)) {
    } else if (f.Int("--page-size=", &cfg.page_size, 1)) {
      o.page_size_set = true;
    } else if (f.Named("--home=", ParseHomePolicyName, &cfg.protocol.home_policy)) {
    } else if (f.Named("--diff-policy=", ParseDiffPolicyName, &cfg.protocol.diff_policy)) {
    } else if (f.Int("--gc-threshold=", &cfg.protocol.gc_threshold_bytes, 1)) {
    } else if (f.Has("--trace=")) {
      o.trace_path = f.Value("--trace=");
    } else if (f.Has("--metrics-out=")) {
      o.metrics_path = f.Value("--metrics-out=");
    } else if (f.Micros("--sample-interval=", &o.sample_interval, 1)) {
    } else if (arg == "--coverage") {
      o.coverage = true;
    } else if (f.Int("--seed=", &cfg.seed, 0)) {
      o.seed_set = true;
    } else if (f.Probability("--fault-drop=", &cfg.fault.drop_prob) ||
               f.Probability("--fault-dup=", &cfg.fault.dup_prob) ||
               f.Probability("--fault-delay=", &cfg.fault.delay_prob) ||
               f.Probability("--fault-corrupt=", &cfg.fault.corrupt_prob)) {
    } else if (f.Int("--fault-seed=", &cfg.fault.seed, 0)) {
      o.fault_seed_set = true;
    } else if (f.Has("--partition=")) {
      PartitionWindow w;
      std::string err;
      if (!ParsePartitionSpec(f.Value("--partition="), &w, &err)) {
        UsageError(kTool, "bad --partition spec: " + err);
      }
      cfg.fault.partitions.push_back(std::move(w));
    } else if (arg == "--reliable") {
      cfg.reliability.enabled = true;
    } else if (f.Micros("--retry-timeout=", &cfg.reliability.retry_timeout, 1)) {
      cfg.reliability.enabled = true;
    } else if (f.Int("--retry-max=", &cfg.reliability.max_retries, 0)) {
      cfg.reliability.enabled = true;
    } else if (arg == "--coalesce") {
      cfg.network.coalesce = true;
    } else if (arg == "--migrate-homes") {
      cfg.protocol.migrate_homes = true;
    } else if (arg == "--per-node") {
      o.per_node = true;
    } else if (arg == "--verbose") {
      o.verbose = true;
    } else if (arg == "--no-verify") {
      o.verify = false;
    } else if (!HandleCommonFlag(kTool, arg)) {
      UsageError(kTool, "unknown flag: " + arg);
    }
  }
  return o;
}

int Main(int argc, char** argv) {
  Options o = Parse(argc, argv);
  SimConfig& cfg = o.cfg;

  // Replay substitutes the trace for an application and inherits the
  // recorded topology unless flags override it explicitly.
  std::unique_ptr<wkld::TraceReplayApp> replay_app;
  if (!o.replay_trace_path.empty()) {
    if (o.app_set) {
      std::fprintf(stderr, "--replay-trace and --app are mutually exclusive\n");
      return 2;
    }
    std::string err;
    replay_app = wkld::TraceReplayApp::Open(o.replay_trace_path, &err);
    if (replay_app == nullptr) {
      std::fprintf(stderr, "cannot replay: %s\n", err.c_str());
      return 2;
    }
    const wkld::TraceInfo& info = replay_app->info();
    if (!o.nodes_set) {
      cfg.nodes = info.nodes;
    }
    if (!o.page_size_set) {
      cfg.page_size = info.page_size;
    }
    if (info.shared_bytes > 0) {
      cfg.shared_bytes = info.shared_bytes;
    }
  }
  if (const std::string error = cfg.Validate(); !error.empty()) {
    UsageError(kTool, error);
  }

  // One root seed feeds every Rng consumer: application inputs and the fault
  // injector draw distinct derived seeds, unless overridden explicitly.
  Rng root(cfg.seed);
  const uint64_t app_seed = root.NextU64();
  const uint64_t derived_fault_seed = root.NextU64();
  if (!o.fault_seed_set) {
    cfg.fault.seed = derived_fault_seed;
  }

  std::unique_ptr<App> app;
  if (replay_app != nullptr) {
    app = std::move(replay_app);
  } else {
    app = o.seed_set ? TryMakeApp(o.app, o.scale, app_seed) : TryMakeApp(o.app, o.scale);
    if (app == nullptr) {
      std::fprintf(stderr, "unknown app '%s'; registered apps:", o.app.c_str());
      for (const std::string& name : RegisteredAppNames()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  if (const std::string error = app->ConfigError(cfg); !error.empty()) {
    UsageError(kTool, error);
  }
  System sys(cfg);
  // Metrics ride along whenever a run summary is requested, and also when a
  // trace is: the Perfetto counter tracks come from the sampler. Causal spans
  // ride along too — they feed the run summary's "spans" section (svmprof
  // critpath) and are the execution trace's slices and flow arrows.
  Metrics* metrics = (o.metrics_path.empty() && o.trace_path.empty())
                         ? nullptr
                         : sys.EnableMetrics(o.sample_interval);
  if (metrics != nullptr) {
    // 256K spans covers the paper apps at 8 nodes; beyond that the tracer
    // drops monotonically (newest first), which keeps the DAG closed.
    sys.EnableSpans(1 << 18);
  }
  // Workload recording attaches before Setup so the allocation table is
  // captured. Pure observation: the recorded run's timing is unchanged.
  // Coverage observation, like metrics, attaches before the run and never
  // charges simulated time.
  std::unique_ptr<fuzz::CoverageMap> coverage;
  if (o.coverage) {
    coverage = std::make_unique<fuzz::CoverageMap>(
        static_cast<uint64_t>(cfg.protocol.kind) + 1);
    sys.SetCoverageObserver(coverage.get());
  }
  std::unique_ptr<wkld::TraceWriter> trace_writer;
  std::unique_ptr<wkld::TraceRecorder> recorder;
  if (!o.record_trace_path.empty()) {
    const std::string meta = std::string("protocol=") + ProtocolName(cfg.protocol.kind) +
                             " seed=" + std::to_string(cfg.seed);
    trace_writer = std::make_unique<wkld::TraceWriter>(
        o.record_trace_path, wkld::MakeTraceInfo(cfg, app->name(), meta));
    recorder = std::make_unique<wkld::TraceRecorder>(&sys, trace_writer.get());
    sys.SetWorkloadObserver(recorder.get());
  }
  app->Setup(sys);
  const auto wall_start = std::chrono::steady_clock::now();
  sys.Run(app->Program());
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  if (trace_writer != nullptr) {
    trace_writer->Finish();
    std::printf("workload trace written to %s\n", o.record_trace_path.c_str());
  }

  std::string why;
  const bool verified = !o.verify || app->Verify(sys, &why);

  const RunReport& report = sys.report();
  const NodeReport avg = report.Average();
  const NodeReport totals = report.Totals();

  std::printf("%s under %s on %d nodes (%s scale, %lld B pages, %s homes)\n",
              app->name().c_str(), ProtocolName(cfg.protocol.kind), cfg.nodes,
              AppScaleName(o.scale), static_cast<long long>(cfg.page_size),
              HomePolicyName(cfg.protocol.home_policy));
  char app_seed_str[32] = "builtin";  // No --seed: apps keep their fixed inputs.
  if (o.seed_set) {
    std::snprintf(app_seed_str, sizeof(app_seed_str), "%llu",
                  static_cast<unsigned long long>(app_seed));
  }
  std::printf("seed: %llu%s (app=%s, fault=%llu)\n",
              static_cast<unsigned long long>(cfg.seed), o.seed_set ? "" : " [default]",
              app_seed_str, static_cast<unsigned long long>(cfg.fault.seed));
  if (cfg.fault.Active()) {
    std::printf("faults: %s\n", FaultPlanSummary(cfg.fault).c_str());
  }
  if (cfg.Reliable()) {
    std::printf("reliable delivery: timeout=%lldus backoff=%.1f max-retries=%d\n",
                static_cast<long long>(cfg.reliability.retry_timeout / 1000),
                kRetryBackoff, cfg.reliability.max_retries);
  }
  if (cfg.network.coalesce) {
    std::printf("wire plane: coalesce=on piggyback=%s barrier-arity=%d\n",
                cfg.Reliable() ? "on" : "off", kBarrierArity);
  }
  std::printf("verification: %s%s\n\n", verified ? "OK" : "FAILED ",
              verified ? "" : why.c_str());

  Table summary("Run summary");
  summary.SetHeader({"Metric", "Value"});
  summary.AddRow({"Virtual time", Table::Fmt(ToSeconds(report.total_time), 3) + " s"});
  summary.AddRow({"Computation (avg/node)", Table::Fmt(ToSeconds(avg.Computation()), 3) + " s"});
  summary.AddRow({"Data transfer wait (avg)", Table::Fmt(ToSeconds(avg.DataTransfer()), 3) + " s"});
  summary.AddRow({"Lock wait (avg)", Table::Fmt(ToSeconds(avg.LockTime()), 3) + " s"});
  summary.AddRow({"Barrier wait (avg)", Table::Fmt(ToSeconds(avg.BarrierTime()), 3) + " s"});
  summary.AddRow({"GC time (avg)", Table::Fmt(ToSeconds(avg.GcTime()), 3) + " s"});
  summary.AddRow({"Protocol overhead (avg)",
                  Table::Fmt(ToSeconds(avg.ProtocolOverhead()), 3) + " s"});
  summary.AddSeparator();
  summary.AddRow({"Messages", Table::Fmt(totals.traffic.msgs_sent)});
  summary.AddRow({"Update traffic", Table::FmtBytes(totals.traffic.update_bytes_sent)});
  summary.AddRow({"Protocol traffic", Table::FmtBytes(totals.traffic.protocol_bytes_sent)});
  if (cfg.Reliable()) {
    summary.AddRow({"Retransmissions", Table::Fmt(totals.traffic.msgs_retransmitted)});
    summary.AddRow({"Dropped in net", Table::Fmt(totals.traffic.msgs_dropped_in_net)});
    summary.AddRow({"Duplicates dropped", Table::Fmt(totals.traffic.msgs_duplicated_dropped)});
    summary.AddRow({"Acks", Table::Fmt(totals.traffic.acks_sent)});
  }
  if (cfg.network.coalesce) {
    summary.AddRow({"Coalesced frames", Table::Fmt(totals.traffic.frames_coalesced)});
    summary.AddRow({"Messages coalesced", Table::Fmt(totals.traffic.msgs_coalesced)});
    summary.AddRow({"Acks piggybacked", Table::Fmt(totals.traffic.acks_piggybacked)});
    summary.AddRow({"Page replies combined", Table::Fmt(totals.proto.page_replies_combined)});
  }
  summary.AddSeparator();
  summary.AddRow({"Read misses (avg/node)", Table::Fmt(avg.proto.read_misses)});
  summary.AddRow({"Page fetches (avg/node)", Table::Fmt(avg.proto.page_fetches)});
  summary.AddRow({"Diffs created (avg/node)", Table::Fmt(avg.proto.diffs_created)});
  summary.AddRow({"Diffs applied (avg/node)", Table::Fmt(avg.proto.diffs_applied)});
  summary.AddRow({"Lock acquires (avg/node)", Table::Fmt(avg.proto.lock_acquires)});
  summary.AddRow({"Barriers (avg/node)", Table::Fmt(avg.proto.barriers)});
  summary.AddRow({"GC runs", Table::Fmt(totals.proto.gc_runs)});
  summary.AddRow({"Protocol memory (max/node)", Table::FmtBytes(avg.proto_mem_highwater)});
  summary.AddRow({"App memory", Table::FmtBytes(report.app_memory_bytes)});
  summary.Print();

  if (o.per_node) {
    std::printf("\n");
    Table per("Per-node breakdown");
    per.SetHeader({"Node", "Finish(s)", "Compute(s)", "Data(s)", "Lock(s)", "Barrier(s)",
                   "Proto(s)"});
    for (size_t n = 0; n < report.nodes.size(); ++n) {
      const NodeReport& r = report.nodes[n];
      per.AddRow({Table::Fmt(static_cast<int64_t>(n)), Table::Fmt(ToSeconds(r.finish_time), 3),
                  Table::Fmt(ToSeconds(r.Computation()), 3),
                  Table::Fmt(ToSeconds(r.DataTransfer()), 3),
                  Table::Fmt(ToSeconds(r.LockTime()), 3),
                  Table::Fmt(ToSeconds(r.BarrierTime()), 3),
                  Table::Fmt(ToSeconds(r.ProtocolOverhead()), 3)});
    }
    per.Print();
  }

  if (!o.trace_path.empty()) {
    std::string err;
    if (!WriteChromeTrace(o.trace_path, *sys.spans(), metrics->sampler(), &err)) {
      std::fprintf(stderr, "trace: %s\n", err.c_str());
      return 1;
    }
    std::printf("\nexecution trace written to %s (%zu spans, %lld dropped at capacity)\n",
                o.trace_path.c_str(), sys.spans()->spans().size(),
                static_cast<long long>(sys.spans()->dropped()));
  }
  if (coverage != nullptr) {
    std::printf("\nprotocol-state coverage (%s):\n%s", ProtocolName(cfg.protocol.kind),
                coverage->Report().c_str());
  }
  if (!o.metrics_path.empty()) {
    RunSummaryMeta meta;
    meta.app = app->name();
    meta.scale = AppScaleName(o.scale);
    meta.verified = verified;
    if (coverage != nullptr) {
      meta.coverage.enabled = true;
      meta.coverage.points = static_cast<int64_t>(coverage->points());
      meta.coverage.hits = coverage->hits();
      for (int d = 0; d < CoverageObserver::kDomains; ++d) {
        meta.coverage.domain_points[static_cast<size_t>(d)] = static_cast<int64_t>(
            coverage->DomainPoints(static_cast<CoverageObserver::Domain>(d)));
      }
    }
    std::string err;
    if (!WriteRunSummaryJson(o.metrics_path, sys, meta, &err)) {
      std::fprintf(stderr, "metrics: %s\n", err.c_str());
      return 1;
    }
    std::printf("run summary written to %s (inspect with svmprof)\n",
                o.metrics_path.c_str());
  }
  if (o.verbose) {
    const int64_t events = sys.engine().events_processed();
    const double rate = wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0.0;
    std::printf("\nwall clock: %.3f s, %lld events (%.2fM events/s), peak RSS %.1f MiB\n",
                wall_seconds, static_cast<long long>(events), rate / 1e6,
                static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
  }
  return verified ? 0 : 1;
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
