// Garbage-collection mechanism tests for the homeless protocols (paper §3.5):
// trigger conditions, validator behaviour, post-GC full-page fetches, memory
// reclamation, and correctness across collections.
#include <gtest/gtest.h>

#include <cstring>

#include "src/apps/app.h"
#include "src/svm/system.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

using testing::SmallConfig;

// Rotating writers so diffs and write notices pile up at every node.
void RunChurn(System& sys, GlobalAddr addr, int rounds, int chunk, int nodes) {
  sys.Run([&, rounds, chunk, nodes](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < rounds; ++r) {
      const GlobalAddr mine = addr + static_cast<GlobalAddr>(ctx.id()) * chunk;
      co_await ctx.Write(mine, chunk);
      std::memset(ctx.Ptr<char>(mine), (r + ctx.id()) % 250 + 1, static_cast<size_t>(chunk));
      co_await ctx.Barrier(0);
      const GlobalAddr theirs =
          addr + static_cast<GlobalAddr>((ctx.id() + 1) % nodes) * chunk;
      co_await ctx.Read(theirs, chunk);
      co_await ctx.Barrier(1);
    }
  });
}

TEST(Gc, NoGcWithLargeThreshold) {
  SimConfig cfg = SmallConfig(ProtocolKind::kLrc, 4);
  cfg.protocol.gc_threshold_bytes = 1ll << 30;
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(32 * 1024);
  RunChurn(sys, addr, 5, 8 * 1024, 4);
  EXPECT_EQ(sys.report().Totals().proto.gc_runs, 0);
}

TEST(Gc, TriggersOnEveryNodeTogether) {
  SimConfig cfg = SmallConfig(ProtocolKind::kLrc, 4);
  cfg.protocol.gc_threshold_bytes = 8 * 1024;
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(32 * 1024);
  RunChurn(sys, addr, 5, 8 * 1024, 4);
  // GC is a global event at a barrier: all nodes record the same count.
  const int64_t runs0 = sys.report().nodes[0].proto.gc_runs;
  EXPECT_GT(runs0, 0);
  for (const NodeReport& n : sys.report().nodes) {
    EXPECT_EQ(n.proto.gc_runs, runs0);
  }
}

TEST(Gc, DataSurvivesCollections) {
  // After heavy churn with frequent GC, final values must still be exact.
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kOlrc}) {
    SimConfig cfg = SmallConfig(kind, 4);
    cfg.protocol.gc_threshold_bytes = 4 * 1024;
    System sys(cfg);
    const GlobalAddr addr = sys.space().AllocPageAligned(16 * 1024);
    sys.Run([&](NodeContext& ctx) -> Task<void> {
      for (int r = 0; r < 6; ++r) {
        if (ctx.id() == r % 4) {
          co_await ctx.Write(addr, 16 * 1024);
          int64_t* data = ctx.Ptr<int64_t>(addr);
          for (int i = 0; i < 2048; ++i) {
            data[i] = r * 10000 + i;
          }
        }
        co_await ctx.Barrier(0);
        co_await ctx.Read(addr, 16 * 1024);
        const int64_t* data = ctx.Ptr<int64_t>(addr);
        for (int i = 0; i < 2048; i += 97) {
          EXPECT_EQ(data[i], r * 10000 + i) << "node " << ctx.id() << " round " << r;
        }
        co_await ctx.Barrier(1);
      }
    });
    EXPECT_GT(sys.report().Totals().proto.gc_runs, 0) << ProtocolName(kind);
  }
}

TEST(Gc, CausesFullPageFetchesAfterCopiesDropped) {
  SimConfig cfg = SmallConfig(ProtocolKind::kLrc, 4);
  cfg.protocol.gc_threshold_bytes = 4 * 1024;
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(32 * 1024);
  RunChurn(sys, addr, 6, 8 * 1024, 4);
  // Without GC the initial copies never drop, so any full-page fetch is a
  // post-GC effect (the paper's LU observation in §4.6).
  EXPECT_GT(sys.report().Totals().proto.page_fetches, 0);
  EXPECT_GT(sys.report().Totals().proto.gc_runs, 0);
}

TEST(Gc, ReducesProtocolMemoryVersusNoGc) {
  int64_t highwater[2] = {0, 0};
  const int64_t thresholds[2] = {1ll << 30, 8 * 1024};
  for (int k = 0; k < 2; ++k) {
    SimConfig cfg = SmallConfig(ProtocolKind::kLrc, 4);
    cfg.protocol.gc_threshold_bytes = thresholds[k];
    System sys(cfg);
    const GlobalAddr addr = sys.space().AllocPageAligned(32 * 1024);
    RunChurn(sys, addr, 8, 8 * 1024, 4);
    for (const NodeReport& n : sys.report().nodes) {
      highwater[k] = std::max(highwater[k], n.proto_mem_highwater);
    }
  }
  EXPECT_GT(highwater[0], highwater[1]);
}

TEST(Gc, GcTimeAppearsInBreakdown) {
  SimConfig cfg = SmallConfig(ProtocolKind::kLrc, 4);
  cfg.protocol.gc_threshold_bytes = 4 * 1024;
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(32 * 1024);
  RunChurn(sys, addr, 6, 8 * 1024, 4);
  SimTime gc_time = 0;
  for (const NodeReport& n : sys.report().nodes) {
    gc_time += n.GcTime();
  }
  EXPECT_GT(gc_time, 0);
}


// Every GC service is charged per page. Two nodes write one private page
// each and falsely share a third, then one barrier forces a collection.
// Node 0 (the barrier manager) receives node 1's two-page inventory,
// validates the shared page (its interval is the last writer's under the
// total order, and node 1's concurrent diff is still pending there) and
// releases the three collected pages. Node 1 inventories its two diffs,
// receives the three validator assignments and releases the three pages.
TEST(Gc, ServicesAreChargedPerPage) {
  SimConfig cfg = SmallConfig(ProtocolKind::kLrc, 2);
  cfg.protocol.gc_threshold_bytes = 0;
  cfg.costs.gc_fixed = 0;
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(3 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    const GlobalAddr own = addr + static_cast<GlobalAddr>(ctx.id()) * 1024;
    const GlobalAddr shared = addr + 2 * 1024 + static_cast<GlobalAddr>(ctx.id()) * 512;
    co_await ctx.Write(own, 8);
    *ctx.Ptr<int64_t>(own) = ctx.id() + 1;
    co_await ctx.Write(shared, 8);
    *ctx.Ptr<int64_t>(shared) = ctx.id() + 1;
    co_await ctx.Barrier(0);
  });
  const RunReport& report = sys.report();
  ASSERT_EQ(report.Totals().proto.gc_runs, 2);
  const SimTime per_page = cfg.costs.gc_per_page;
  EXPECT_EQ(report.nodes[0].cpu_busy.Get(BusyCat::kGc), (2 + 1 + 3) * per_page);
  EXPECT_EQ(report.nodes[1].cpu_busy.Get(BusyCat::kGc), (2 + 3 + 3) * per_page);
}

TEST(Gc, MigratoryChurnWithAggressiveGcAtScale) {
  // Regression: a GC validator could learn of intervals for its own pages
  // only from the barrier release — after the diffs were collected. LU-like
  // migratory block updates at 16 nodes with a tiny threshold reproduce the
  // window; the run must verify exactly.
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kOlrc}) {
    auto app = MakeApp("lu", AppScale::kTiny);
    SimConfig cfg = SmallConfig(kind, 16, 16ll << 20, 1024);
    cfg.protocol.gc_threshold_bytes = 16 << 10;
    const AppRunResult r = RunApp(*app, cfg);
    EXPECT_TRUE(r.verified) << ProtocolName(kind) << ": " << r.why;
    EXPECT_GT(r.report.Totals().proto.gc_runs, 0) << ProtocolName(kind);
  }
}

}  // namespace
}  // namespace hlrc
