// Reproduces paper Figure 3: average per-node execution-time breakdowns
// (computation, data transfer, lock, barrier, garbage collection, protocol
// overhead) for all four protocols, printed as stacked percentage tables plus
// ASCII bars. With --causal, each table gains a companion built from the
// causal span DAG instead of flat counters: the per-category critical-path
// attribution of every blocking operation's wait (svmprof's critpath sweep),
// telling not just how long nodes waited but what the waits were made of.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/tracing/critpath.h"
#include "src/tracing/span.h"

namespace hlrc {
namespace bench {
namespace {

std::string Bar(double frac, int width = 40) {
  const int n = static_cast<int>(frac * width + 0.5);
  std::string s(static_cast<size_t>(n), '#');
  return s;
}

// RunVerified with the span tracer attached (tracing is pure observation, so
// the run matches the counter table's run exactly) → critical-path summary.
CritPathSummary RunCausal(const std::string& app_name, const BenchOptions& opts,
                          const SimConfig& cfg) {
  std::unique_ptr<App> app = MakeApp(app_name, opts.scale);
  CheckAppLimits(*app, cfg);
  System sys(cfg);
  sys.EnableSpans(1 << 22);
  app->Setup(sys);
  sys.Run(app->Program());
  if (opts.verify) {
    std::string why;
    HLRC_CHECK_MSG(app->Verify(sys, &why), "%s failed verification under %s at %d nodes: %s",
                   app_name.c_str(), ProtocolName(cfg.protocol.kind), cfg.nodes, why.c_str());
  }
  return AttributeCriticalPaths(sys.spans()->spans());
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  if (opts.node_counts.size() == 3 && opts.node_counts[0] == 8) {
    opts.node_counts = {8, 32};  // Figure 3 shows 8 and 32/64-node runs.
  }

  std::printf("=== Figure 3: Execution time breakdowns (average per node) ===\n");

  for (const std::string& app : opts.apps) {
    for (int nodes : opts.node_counts) {
      std::printf("\n--- %s, %d nodes ---\n", app.c_str(), nodes);
      Table table("");
      table.SetHeader({"Protocol", "Total(s)", "Compute", "Data", "Lock", "Barrier", "GC",
                       "Protocol", "Bar (compute fraction)"});
      for (ProtocolKind kind : opts.protocols) {
        const AppRunResult r = RunVerified(app, opts, BaseConfig(opts, kind, nodes));
        const NodeReport avg = r.report.Average();
        const double total = static_cast<double>(r.report.total_time);
        auto pct = [&](SimTime t) {
          return Table::Fmt(100.0 * static_cast<double>(t) / total, 1) + "%";
        };
        table.AddRow({ProtocolName(kind), FmtSeconds(r.report.total_time),
                      pct(avg.Computation()), pct(avg.DataTransfer()), pct(avg.LockTime()),
                      pct(avg.BarrierTime()), pct(avg.GcTime()), pct(avg.ProtocolOverhead()),
                      Bar(static_cast<double>(avg.Computation()) / total)});
        std::fflush(stdout);
      }
      table.Print();

      if (opts.causal) {
        Table causal("Critical-path attribution of blocking waits (causal spans)");
        std::vector<std::string> header = {"Protocol", "Wait(s)"};
        for (size_t c = 0; c < kCritCatCount; ++c) {
          header.push_back(CritCatName(static_cast<CritCat>(c)));
        }
        causal.SetHeader(header);
        for (ProtocolKind kind : opts.protocols) {
          const CritPathSummary sum = RunCausal(app, opts, BaseConfig(opts, kind, nodes));
          std::vector<std::string> row = {ProtocolName(kind), FmtSeconds(sum.total_wait)};
          for (size_t c = 0; c < kCritCatCount; ++c) {
            const double frac = sum.total_wait > 0
                                    ? 100.0 * static_cast<double>(sum.total[c]) /
                                          static_cast<double>(sum.total_wait)
                                    : 0.0;
            row.push_back(Table::Fmt(frac, 1) + "%");
          }
          causal.AddRow(row);
          std::fflush(stdout);
        }
        causal.Print();
      }
    }
  }
  std::printf(
      "\nPaper §4.5 shapes: home-based protocols cut lock/barrier wait, data transfer\n"
      "time and protocol overhead; synchronization dominates the total overhead; GC\n"
      "appears only under the homeless protocols.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::bench::Main(argc, argv); }
