// Reproduces the paper's evaluation (§4) from one grid of runs: each
// application's sequential time T_seq, and one run per (application, nodes,
// protocol) cell. The protocols are --protocols plus LRC and HLRC, which
// Tables 4-6 and Figure 4 compare. Every table and figure is then printed as
// a view of those runs, in EXPERIMENTS.md's order:
//
//   Table 1   applications, problem sizes and T_seq;
//   Table 2   speedups T_seq / T_parallel of every protocol;
//   Table 4   average per-node operation counts, LRC vs HLRC (the home effect);
//   Figure 3  average per-node execution-time breakdowns of every protocol,
//             plus, with --causal, the critical-path attribution of the
//             blocking waits drawn from causal spans (docs/OBSERVABILITY.md);
//   Figure 4  per-processor breakdowns of Water-Nsquared's force phase,
//             between two barriers, LRC vs HLRC;
//   Table 5   communication traffic, LRC vs HLRC;
//   Table 6   protocol memory, LRC vs HLRC.
//
// At the paper's node list {8, 32, 64}, Table 4 shows the paper's 8 and 64
// nodes and Figures 3 and 4 its 8 and 32; any other --nodes list is shown
// whole. --json writes one row per cell (speedup and traffic).
//
// Speedup absolute values depend on the compute calibration; the
// paper-relevant shapes are (a) home-based >> homeless, (b) the gap grows
// with node count, (c) overlapping adds a modest extra improvement.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/lu.h"
#include "src/apps/raytrace.h"
#include "src/apps/sor.h"
#include "src/apps/water_nsquared.h"
#include "src/apps/water_spatial.h"

namespace hlrc {
namespace bench {
namespace {

// Index of `x` in `v`, or v.size() when `v` does not hold it.
template <typename V, typename X>
size_t Pos(const V& v, const X& x) {
  return static_cast<size_t>(std::find(v.begin(), v.end(), x) - v.begin());
}

// One (app, nodes, protocol) run of the grid.
struct Cell {
  RunReport report;
  // Under --causal, for the cells Figure 3 shows: the run's blocking waits
  // and their critical-path attribution by category (the spans themselves
  // are not kept).
  SimTime wait = 0;
  CatTimes wait_by_cat{};
};

struct Grid {
  BenchOptions opts;
  std::vector<ProtocolKind> protocols;  // --protocols, then LRC and HLRC.
  std::vector<SimTime> seq;             // T_seq, indexed like opts.apps.
  std::vector<Cell> cells;              // App-major, then nodes, then protocols.

  const Cell& At(size_t app, int nodes, ProtocolKind kind) const {
    return cells[(app * opts.node_counts.size() + Pos(opts.node_counts, nodes)) *
                     protocols.size() +
                 Pos(protocols, kind)];
  }
  // The node counts a view shows: `paper` when the grid is the paper's.
  std::vector<int> Nodes(std::vector<int> paper) const {
    return opts.node_counts == std::vector<int>{8, 32, 64} ? paper : opts.node_counts;
  }
};

// Runs every T_seq and every cell through one ParallelFor. Each run is an
// isolated System writing its own slot, so the views are byte-identical at
// any --jobs count.
Grid RunGrid(const BenchOptions& opts) {
  Grid g{opts, opts.protocols, {}, {}};
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kHlrc}) {
    if (Pos(g.protocols, kind) == g.protocols.size()) {
      g.protocols.push_back(kind);
    }
  }
  const std::vector<int> fig3_nodes = g.Nodes({8, 32});
  const size_t apps = opts.apps.size();
  const size_t nodes = opts.node_counts.size();
  const size_t protocols = g.protocols.size();
  g.seq.resize(apps);
  g.cells.resize(apps * nodes * protocols);
  ParallelFor(static_cast<int>(apps + g.cells.size()), opts.jobs, [&](int i) {
    const size_t t = static_cast<size_t>(i);
    if (t < apps) {
      g.seq[t] = SequentialTime(opts.apps[t], opts);
      return;
    }
    const size_t c = t - apps;
    const std::string& app = opts.apps[c / (nodes * protocols)];
    const int n = opts.node_counts[c / protocols % nodes];
    const ProtocolKind kind = g.protocols[c % protocols];
    const bool traced = opts.causal && Pos(fig3_nodes, n) < fig3_nodes.size() &&
                        Pos(opts.protocols, kind) < opts.protocols.size();
    CritPathSummary crit;
    Cell& cell = g.cells[c];
    cell.report =
        RunVerified(app, opts, BaseConfig(opts, kind, n), traced ? &crit : nullptr).report;
    cell.wait = crit.total_wait;
    cell.wait_by_cat = crit.total;
  });
  return g;
}

std::string ProblemSize(const std::string& name, AppScale scale) {
  auto app = MakeApp(name, scale);
  if (name == "lu") {
    const auto& cfg = static_cast<LuApp*>(app.get())->config();
    return std::to_string(cfg.n) + "x" + std::to_string(cfg.n) + ", block " +
           std::to_string(cfg.block);
  }
  if (name == "sor") {
    const auto& cfg = static_cast<SorApp*>(app.get())->config();
    return std::to_string(cfg.rows) + "x" + std::to_string(cfg.cols) + ", " +
           std::to_string(cfg.iterations) + " iters";
  }
  if (name == "water-nsq") {
    const auto& cfg = static_cast<WaterNsqApp*>(app.get())->config();
    return std::to_string(cfg.molecules) + " molecules, " + std::to_string(cfg.steps) +
           " steps";
  }
  if (name == "water-sp") {
    const auto& cfg = static_cast<WaterSpApp*>(app.get())->config();
    return std::to_string(cfg.molecules) + " molecules, " + std::to_string(cfg.cells) + "^3 cells";
  }
  if (name == "raytrace") {
    const auto& cfg = static_cast<RaytraceApp*>(app.get())->config();
    return std::to_string(cfg.width) + "x" + std::to_string(cfg.height) + ", " +
           std::to_string(cfg.spheres) + " spheres";
  }
  return "-";  // Not one of the paper's five (--apps=fft).
}

void PrintTable1(const Grid& g) {
  std::printf("=== Table 1: Applications, problem sizes, sequential times ===\n\n");
  Table table("");
  table.SetHeader({"Application", "Problem size", "Sequential time (virtual s)"});
  for (size_t a = 0; a < g.opts.apps.size(); ++a) {
    const std::string& app = g.opts.apps[a];
    table.AddRow({app, ProblemSize(app, g.opts.scale), FmtSeconds(g.seq[a])});
  }
  table.Print();
  std::printf(
      "\nNote: the paper's problems (Table 1) ran ~1000-2000s sequential on a 50 MHz\n"
      "i860; these are scaled-down defaults with the same sharing patterns. Run with\n"
      "--scale=paper for the paper's sizes.\n");
}

double Speedup(const Grid& g, size_t app, const Cell& cell) {
  return static_cast<double>(g.seq[app]) / static_cast<double>(cell.report.total_time);
}

void PrintTable2(const Grid& g) {
  const BenchOptions& opts = g.opts;
  std::printf("=== Table 2: Speedups on the simulated Paragon ===\n");
  std::printf("scale=%s page=%lld home=%s\n\n", AppScaleName(opts.scale),
              static_cast<long long>(opts.base.page_size),
              HomePolicyName(opts.base.protocol.home_policy));
  Table table("Speedups (T_seq / T_parallel)");
  std::vector<std::string> header = {"Application", "T_seq(s)"};
  for (int nodes : opts.node_counts) {
    for (ProtocolKind kind : opts.protocols) {
      header.push_back(std::string(ProtocolName(kind)) + "/" + std::to_string(nodes));
    }
  }
  table.SetHeader(header);
  for (size_t a = 0; a < opts.apps.size(); ++a) {
    std::vector<std::string> row = {opts.apps[a], FmtSeconds(g.seq[a])};
    for (int nodes : opts.node_counts) {
      for (ProtocolKind kind : opts.protocols) {
        row.push_back(Table::Fmt(Speedup(g, a, g.At(a, nodes, kind)), 2));
      }
    }
    table.AddRow(row);
  }
  table.Print();
}

void PrintTable4(const Grid& g) {
  std::printf("=== Table 4: Average number of operations on each node ===\n\n");
  Table table("");
  table.SetHeader({"Application", "Nodes", "ReadMiss LRC", "ReadMiss HLRC", "DiffsCre LRC",
                   "DiffsCre HLRC", "DiffsApp LRC", "DiffsApp HLRC", "Lock acq", "Barriers"});
  for (size_t a = 0; a < g.opts.apps.size(); ++a) {
    for (int nodes : g.Nodes({8, 64})) {
      const NodeReport al = g.At(a, nodes, ProtocolKind::kLrc).report.Average();
      const NodeReport ah = g.At(a, nodes, ProtocolKind::kHlrc).report.Average();
      table.AddRow({g.opts.apps[a], Table::Fmt(static_cast<int64_t>(nodes)),
                    Table::Fmt(al.proto.read_misses), Table::Fmt(ah.proto.read_misses),
                    Table::Fmt(al.proto.diffs_created), Table::Fmt(ah.proto.diffs_created),
                    Table::Fmt(al.proto.diffs_applied), Table::Fmt(ah.proto.diffs_applied),
                    Table::Fmt(ah.proto.lock_acquires), Table::Fmt(ah.proto.barriers)});
    }
    table.AddSeparator();
  }
  table.Print();
  std::printf(
      "\nHome effect (paper §4.4): HLRC creates no diffs at homes (zero for LU/SOR with\n"
      "block placement), has fewer read misses, and applies each diff exactly once.\n");
}

std::string Bar(double frac, int width = 40) {
  const int n = static_cast<int>(frac * width + 0.5);
  return std::string(static_cast<size_t>(n), '#');
}

void PrintFig3(const Grid& g) {
  const BenchOptions& opts = g.opts;
  std::printf("=== Figure 3: Execution time breakdowns (average per node) ===\n");
  for (size_t a = 0; a < opts.apps.size(); ++a) {
    for (int nodes : g.Nodes({8, 32})) {
      std::printf("\n--- %s, %d nodes ---\n", opts.apps[a].c_str(), nodes);
      Table table("");
      table.SetHeader({"Protocol", "Total(s)", "Compute", "Data", "Lock", "Barrier", "GC",
                       "Protocol", "Bar (compute fraction)"});
      for (ProtocolKind kind : opts.protocols) {
        const RunReport& r = g.At(a, nodes, kind).report;
        const NodeReport avg = r.Average();
        const double total = static_cast<double>(r.total_time);
        auto pct = [&](SimTime t) {
          return Table::Fmt(100.0 * static_cast<double>(t) / total, 1) + "%";
        };
        table.AddRow({ProtocolName(kind), FmtSeconds(r.total_time), pct(avg.Computation()),
                      pct(avg.DataTransfer()), pct(avg.LockTime()), pct(avg.BarrierTime()),
                      pct(avg.GcTime()), pct(avg.ProtocolOverhead()),
                      Bar(static_cast<double>(avg.Computation()) / total)});
      }
      table.Print();
      if (!opts.causal) {
        continue;
      }
      // What each protocol's blocking waits were made of, not just how long
      // nodes waited: svmprof's critpath sweep over the run's span DAG.
      Table causal("Critical-path attribution of blocking waits (causal spans)");
      std::vector<std::string> header = {"Protocol", "Wait(s)"};
      for (size_t c = 0; c < kCritCatCount; ++c) {
        header.push_back(CritCatName(static_cast<CritCat>(c)));
      }
      causal.SetHeader(header);
      for (ProtocolKind kind : opts.protocols) {
        const Cell& cell = g.At(a, nodes, kind);
        std::vector<std::string> row = {ProtocolName(kind), FmtSeconds(cell.wait)};
        for (size_t c = 0; c < kCritCatCount; ++c) {
          const double frac = cell.wait > 0 ? 100.0 * static_cast<double>(cell.wait_by_cat[c]) /
                                                  static_cast<double>(cell.wait)
                                            : 0.0;
          row.push_back(Table::Fmt(frac, 1) + "%");
        }
        causal.AddRow(row);
      }
      causal.Print();
    }
  }
  std::printf(
      "\nPaper §4.5 shapes: home-based protocols cut lock/barrier wait, data transfer\n"
      "time and protocol overhead; synchronization dominates the total overhead; GC\n"
      "appears only under the homeless protocols.\n");
}

// Reads the Water-Nsquared cells' phase snapshots, which every run records:
// phases 2k (start of step k) and 2k+1 (after the predict barrier). The
// window [2k+1, 2k+2) covers the force phase of step k: locks + data
// transfer, between two barriers (the paper's barriers 9..10). Not printed
// when --apps leaves Water-Nsquared out.
void PrintFig4(const Grid& g) {
  const size_t app = Pos(g.opts.apps, "water-nsq");
  if (app == g.opts.apps.size()) {
    return;
  }
  const int window_lo = 1;
  const int window_hi = 2;
  std::printf("=== Figure 4: Per-processor breakdowns, Water-Nsquared force phase ===\n");
  for (int nodes : g.Nodes({8, 32})) {
    for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kHlrc}) {
      const RunReport& r = g.At(app, nodes, kind).report;
      std::printf("\n--- %s, %d nodes, window between barriers ---\n", ProtocolName(kind),
                  nodes);
      Table table("");
      table.SetHeader({"Node", "Window(ms)", "Compute(ms)", "Data(ms)", "Lock(ms)",
                       "Protocol(ms)"});
      const int shown = std::min(nodes, 8);  // First 8 processors, like the figure.
      for (NodeId n = 0; n < shown; ++n) {
        const auto lo = r.phases.find({window_lo, n});
        const auto hi = r.phases.find({window_hi, n});
        if (lo == r.phases.end() || hi == r.phases.end()) {
          continue;
        }
        const NodeReport& a = lo->second;
        const NodeReport& b = hi->second;
        const SimTime span = b.finish_time - a.finish_time;
        const BusyBreakdown busy = b.cpu_busy - a.cpu_busy;
        const WaitBreakdown waits = b.waits - a.waits;
        table.AddRow({Table::Fmt(static_cast<int64_t>(n)), Table::Fmt(ToMillis(span), 2),
                      Table::Fmt(ToMillis(busy.Get(BusyCat::kCompute)), 2),
                      Table::Fmt(ToMillis(waits.Get(WaitCat::kData)), 2),
                      Table::Fmt(ToMillis(waits.Get(WaitCat::kLock)), 2),
                      Table::Fmt(ToMillis(busy.ProtocolOverhead()), 2)});
      }
      table.Print();
    }
  }
  std::printf(
      "\nPaper §4.5 shapes: at 8 nodes the imbalance is mostly computational; at larger\n"
      "node counts lock waiting dominates and is larger and more imbalanced under LRC\n"
      "than HLRC, because page misses inside critical sections serialize at hot spots.\n");
}

void PrintTable5(const Grid& g) {
  const BenchOptions& opts = g.opts;
  // Under fault injection the reliable-delivery layer adds traffic of its
  // own; report it so degraded-fabric runs stay interpretable.
  const bool faulty = opts.base.fault.drop_prob > 0;
  std::printf("=== Table 5: Communication traffic (totals across nodes) ===\n\n");
  Table table("");
  std::vector<std::string> header = {"Application",  "Nodes",       "Msgs LRC",
                                     "Msgs HLRC",    "Update LRC",  "Update HLRC",
                                     "Protocol LRC", "Protocol HLRC"};
  if (faulty) {
    header.insert(header.end(),
                  {"Retx LRC", "Retx HLRC", "DupDrop LRC", "DupDrop HLRC", "Acks LRC",
                   "Acks HLRC"});
  }
  table.SetHeader(header);
  for (size_t a = 0; a < opts.apps.size(); ++a) {
    for (int nodes : opts.node_counts) {
      const NodeReport tl = g.At(a, nodes, ProtocolKind::kLrc).report.Totals();
      const NodeReport th = g.At(a, nodes, ProtocolKind::kHlrc).report.Totals();
      std::vector<std::string> row = {opts.apps[a], Table::Fmt(static_cast<int64_t>(nodes)),
                                      Table::Fmt(tl.traffic.msgs_sent),
                                      Table::Fmt(th.traffic.msgs_sent),
                                      Table::FmtBytes(tl.traffic.update_bytes_sent),
                                      Table::FmtBytes(th.traffic.update_bytes_sent),
                                      Table::FmtBytes(tl.traffic.protocol_bytes_sent),
                                      Table::FmtBytes(th.traffic.protocol_bytes_sent)};
      if (faulty) {
        row.insert(row.end(), {Table::Fmt(tl.traffic.msgs_retransmitted),
                               Table::Fmt(th.traffic.msgs_retransmitted),
                               Table::Fmt(tl.traffic.msgs_duplicated_dropped),
                               Table::Fmt(th.traffic.msgs_duplicated_dropped),
                               Table::Fmt(tl.traffic.acks_sent),
                               Table::Fmt(th.traffic.acks_sent)});
      }
      table.AddRow(row);
    }
    table.AddSeparator();
  }
  table.Print();
  if (faulty) {
    std::printf("\nFault injection active: drop=%.4f seed=%llu (reliable delivery on).\n",
                opts.base.fault.drop_prob,
                static_cast<unsigned long long>(opts.base.fault.seed));
  }
  std::printf(
      "\nPaper §4.6 shapes: HLRC sends one message per diff (to the home) and exactly one\n"
      "round trip per page miss; LRC needs a message per writer per miss. Homeless\n"
      "protocol traffic grows with node count because write notices carry full vector\n"
      "timestamps. For fine-grain sharing (Raytrace) HLRC moves more bytes (whole pages)\n"
      "but fewer messages.\n");
}

void PrintTable6(const Grid& g) {
  std::printf("=== Table 6: Protocol memory (per-node high-water mark) ===\n\n");
  Table table("");
  table.SetHeader({"Application", "Nodes", "App memory", "LRC proto mem", "LRC %app",
                   "LRC intv meta", "HLRC proto mem", "HLRC %app", "HLRC intv meta",
                   "LRC GCs"});
  for (size_t a = 0; a < g.opts.apps.size(); ++a) {
    for (int nodes : g.opts.node_counts) {
      const RunReport& lrc = g.At(a, nodes, ProtocolKind::kLrc).report;
      const NodeReport al = lrc.Average();
      const NodeReport ah = g.At(a, nodes, ProtocolKind::kHlrc).report.Average();
      const double app_mem = static_cast<double>(lrc.app_memory_bytes);
      table.AddRow(
          {g.opts.apps[a], Table::Fmt(static_cast<int64_t>(nodes)),
           Table::FmtBytes(lrc.app_memory_bytes), Table::FmtBytes(al.proto_mem_highwater),
           Table::Fmt(100.0 * static_cast<double>(al.proto_mem_highwater) / app_mem, 1),
           Table::FmtBytes(al.proto.interval_meta_highwater),
           Table::FmtBytes(ah.proto_mem_highwater),
           Table::Fmt(100.0 * static_cast<double>(ah.proto_mem_highwater) / app_mem, 1),
           Table::FmtBytes(ah.proto.interval_meta_highwater),
           Table::Fmt(lrc.Totals().proto.gc_runs)});
    }
    table.AddSeparator();
  }
  table.Print();
  std::printf(
      "\nPaper §4.7 shapes: homeless protocol memory is a large multiple of application\n"
      "memory (diffs + write notices with full vector timestamps, kept until GC) and\n"
      "grows with node count; home-based protocol memory is a few percent and shrinks.\n"
      "The 'intv meta' columns isolate the interval-record bytes held in the shared\n"
      "interval log (docs/PERFORMANCE.md, metadata fast path) from diffs and twins.\n");
}

// Protocol-level message count: every logical message the protocols
// exchanged, regardless of how the wire plane framed it. Excludes acks
// (reliable-delivery bookkeeping, not protocol traffic) and bundle frames
// (counted once per carried part instead). Invariant under --coalesce: the
// coalesced plane repacks frames but never adds or removes protocol
// messages.
int64_t LogicalMsgs(const NodeReport& t) {
  int64_t n = 0;
  for (size_t i = 0; i < t.traffic.msgs_by_type.size(); ++i) {
    if (i == static_cast<size_t>(MsgType::kAck) ||
        i == static_cast<size_t>(MsgType::kBundle)) {
      continue;
    }
    n += t.traffic.msgs_by_type[i];
  }
  return n;
}

// One row per cell: its speedup (Table 2) and its traffic totals (Table 5).
void WriteJson(const Grid& g) {
  const BenchOptions& opts = g.opts;
  JsonWriter json = OpenBenchJson("paper_grid");
  for (size_t a = 0; a < opts.apps.size(); ++a) {
    for (int nodes : opts.node_counts) {
      for (ProtocolKind kind : g.protocols) {
        const Cell& cell = g.At(a, nodes, kind);
        const NodeReport t = cell.report.Totals();
        json.BeginObject();
        json.KV("app", opts.apps[a]);
        json.KV("protocol", ProtocolName(kind));
        json.KV("nodes", nodes);
        json.KV("seq_s", ToSeconds(g.seq[a]));
        json.KV("time_s", ToSeconds(cell.report.total_time));
        json.KV("speedup", Speedup(g, a, cell));
        json.KV("msgs", t.traffic.msgs_sent);
        json.KV("update_bytes", t.traffic.update_bytes_sent);
        json.KV("protocol_bytes", t.traffic.protocol_bytes_sent);
        json.KV("retransmissions", t.traffic.msgs_retransmitted);
        json.KV("dup_dropped", t.traffic.msgs_duplicated_dropped);
        json.KV("acks", t.traffic.acks_sent);
        // Frames vs. logical messages: "msgs" counts physical frames (a
        // coalesced bundle is one frame); "logical_msgs" counts the protocol
        // messages inside them and must not change under --coalesce.
        json.KV("logical_msgs", LogicalMsgs(t));
        json.KV("frames_coalesced", t.traffic.frames_coalesced);
        json.KV("msgs_coalesced", t.traffic.msgs_coalesced);
        json.KV("acks_piggybacked", t.traffic.acks_piggybacked);
        json.KV("page_replies_combined", t.proto.page_replies_combined);
        json.EndObject();
      }
    }
  }
  WriteBenchJson(json, opts.json_out);
}

int Main(int argc, char** argv) {
  const Grid g = RunGrid(ParseArgs(argc, argv));
  PrintTable1(g);
  PrintTable2(g);
  PrintTable4(g);
  PrintFig3(g);
  PrintFig4(g);
  PrintTable5(g);
  PrintTable6(g);
  if (!g.opts.json_out.empty()) {
    WriteJson(g);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::bench::Main(argc, argv); }
