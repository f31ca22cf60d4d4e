// Reproduces paper Table 2: speedups of the five applications under LRC,
// OLRC, HLRC and OHLRC on 8, 32 and 64 nodes.
//
// Speedup = sequential (uniprocessor compute) time / parallel virtual time.
// Absolute values depend on the compute calibration; the paper-relevant
// shapes are (a) home-based >> homeless, (b) the gap grows with node count,
// (c) overlapping adds a modest extra improvement.
#include <cstdio>
#include <map>

#include "bench/bench_util.h"

namespace hlrc {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);

  std::printf("=== Table 2: Speedups on the simulated Paragon ===\n");
  std::printf("scale=%s page=%lld home=%s\n\n", AppScaleName(opts.scale),
              static_cast<long long>(opts.page_size), HomePolicyName(opts.home_policy));

  Table table("Speedups (T_seq / T_parallel)");
  std::vector<std::string> header = {"Application", "T_seq(s)"};
  for (int nodes : opts.node_counts) {
    for (ProtocolKind kind : opts.protocols) {
      header.push_back(std::string(ProtocolName(kind)) + "/" + std::to_string(nodes));
    }
  }
  table.SetHeader(header);

  // Every data point is an isolated simulation, so the full grid fans out
  // through ParallelMap and the table/JSON emission below walks the results
  // in the original order — output is byte-identical at any --jobs count.
  const int apps_n = static_cast<int>(opts.apps.size());
  const std::vector<SimTime> seq_times = ParallelMap<SimTime>(
      apps_n, opts.jobs, [&](int i) { return SequentialTime(opts.apps[static_cast<size_t>(i)], opts); });

  struct Cell {
    std::string app;
    int nodes = 0;
    ProtocolKind kind = ProtocolKind::kLrc;
    SimTime seq = 0;
  };
  std::vector<Cell> cells;
  for (int a = 0; a < apps_n; ++a) {
    for (int nodes : opts.node_counts) {
      for (ProtocolKind kind : opts.protocols) {
        cells.push_back({opts.apps[static_cast<size_t>(a)], nodes, kind,
                         seq_times[static_cast<size_t>(a)]});
      }
    }
  }
  const std::vector<AppRunResult> runs = ParallelMap<AppRunResult>(
      static_cast<int>(cells.size()), opts.jobs, [&](int i) {
        const Cell& c = cells[static_cast<size_t>(i)];
        return RunVerified(c.app, opts, BaseConfig(opts, c.kind, c.nodes));
      });

  BenchJson json("table2_speedups");
  size_t cell = 0;
  for (int a = 0; a < apps_n; ++a) {
    const std::string& app = opts.apps[static_cast<size_t>(a)];
    const SimTime seq = seq_times[static_cast<size_t>(a)];
    std::vector<std::string> row = {app, FmtSeconds(seq)};
    for (int nodes : opts.node_counts) {
      for (ProtocolKind kind : opts.protocols) {
        const AppRunResult& r = runs[cell++];
        const double speedup =
            static_cast<double>(seq) / static_cast<double>(r.report.total_time);
        row.push_back(Table::Fmt(speedup, 2));
        json.BeginRow();
        json.Add("app", app);
        json.Add("protocol", ProtocolName(kind));
        json.Add("nodes", nodes);
        json.Add("seq_s", ToSeconds(seq));
        json.Add("time_s", ToSeconds(r.report.total_time));
        json.Add("speedup", speedup);
        json.EndRow();
      }
    }
    table.AddRow(row);
  }
  table.Print();
  if (!opts.json_out.empty()) {
    json.WriteFile(opts.json_out);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::bench::Main(argc, argv); }
