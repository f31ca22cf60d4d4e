// Ablation: coherence granularity. Large pages amplify false sharing and
// transfer cost (paper §1 lists the VM page granularity as a core SVM
// limitation); the tradeoff differs for homeless (diff traffic) and
// home-based (whole-page fetch) protocols.
#include <cstdio>

#include "bench/bench_util.h"

namespace hlrc {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  if (opts.apps.size() == 5) {
    opts.apps = {"sor", "raytrace"};  // Coarse-grain vs false-sharing-heavy.
  }
  const int nodes = opts.node_counts.size() > 1 ? opts.node_counts[1] : opts.node_counts[0];

  std::printf("=== Ablation: page size (LRC vs HLRC, %d nodes) ===\n\n", nodes);
  Table table("");
  table.SetHeader({"Application", "Page", "LRC time(s)", "HLRC time(s)", "LRC update",
                   "HLRC update"});
  for (const std::string& app : opts.apps) {
    for (int64_t page : {1024, 4096, 8192, 16384}) {
      BenchOptions o = opts;
      o.base.page_size = page;
      const AppRunResult lrc = RunVerified(app, o, BaseConfig(o, ProtocolKind::kLrc, nodes));
      const AppRunResult hlrc = RunVerified(app, o, BaseConfig(o, ProtocolKind::kHlrc, nodes));
      table.AddRow({app, Table::FmtBytes(page), FmtSeconds(lrc.report.total_time),
                    FmtSeconds(hlrc.report.total_time),
                    Table::FmtBytes(lrc.report.Totals().traffic.update_bytes_sent),
                    Table::FmtBytes(hlrc.report.Totals().traffic.update_bytes_sent)});
      std::fflush(stdout);
    }
    table.AddSeparator();
  }
  table.Print();
  std::printf(
      "\nShape to check: HLRC's whole-page transfers grow with the page size while\n"
      "LRC's diff traffic does not, narrowing (or inverting) the bandwidth side of\n"
      "the tradeoff at large pages — the paper's bandwidth-vs-overhead tradeoff.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::bench::Main(argc, argv); }
