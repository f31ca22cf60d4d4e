// Ablation: sensitivity of the home-based protocols to home placement
// (paper §2.2: "page faults can be reduced if homes are chosen
// intelligently"). Block placement aligns homes with each application's
// partitioning; round-robin scatters them; single-node is the worst case.
#include <cstdio>

#include "bench/bench_util.h"

namespace hlrc {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  const int nodes = opts.node_counts.size() > 1 ? opts.node_counts[1] : opts.node_counts[0];

  std::printf("=== Ablation: home placement policy (HLRC, %d nodes) ===\n\n", nodes);
  Table table("");
  table.SetHeader({"Application", "Policy", "Time(s)", "Read misses/node", "Diffs/node",
                   "Update traffic"});
  for (const std::string& app : opts.apps) {
    for (int variant = 0; variant < 4; ++variant) {
      SimConfig cfg = BaseConfig(opts, ProtocolKind::kHlrc, nodes);
      std::string label;
      switch (variant) {
        case 0:
          cfg.protocol.home_policy = HomePolicy::kBlock;
          label = "block";
          break;
        case 1:
          cfg.protocol.home_policy = HomePolicy::kRoundRobin;
          label = "round-robin";
          break;
        case 2:
          cfg.protocol.home_policy = HomePolicy::kSingleNode;
          label = "single-node";
          break;
        case 3:
          cfg.protocol.home_policy = HomePolicy::kSingleNode;
          label = "single-node + migration";
          cfg.protocol.migrate_homes = true;
          break;
      }
      const AppRunResult r = RunVerified(app, opts, cfg);
      const NodeReport avg = r.report.Average();
      table.AddRow({app, label, FmtSeconds(r.report.total_time),
                    Table::Fmt(avg.proto.read_misses), Table::Fmt(avg.proto.diffs_created),
                    Table::FmtBytes(r.report.Totals().traffic.update_bytes_sent)});
      std::fflush(stdout);
    }
    table.AddSeparator();
  }
  table.Print();
  std::printf(
      "\nShape to check: block placement (homes aligned with the writer partitioning)\n"
      "minimizes diffs and misses — the paper's home effect; single-node homes\n"
      "serialize all updates through one node.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::bench::Main(argc, argv); }
