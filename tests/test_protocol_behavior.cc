// Protocol-level behavioral properties: the mechanisms behind the paper's
// Tables 4-6 (home effect, message-count asymmetries, garbage collection,
// memory profiles, overlap effects), checked on purpose-built miniature
// workloads.
#include <gtest/gtest.h>

#include <cstring>

#include "src/svm/system.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

using testing::SmallConfig;

// Single producer writing pages homed at itself, many consumers.
void RunProducerConsumer(System& sys, GlobalAddr addr, int64_t bytes, int rounds) {
  sys.Run([&, rounds](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < rounds; ++r) {
      if (ctx.id() == 0) {
        co_await ctx.Write(addr, bytes);
        std::memset(ctx.Ptr<char>(addr), r + 1, static_cast<size_t>(bytes));
      }
      co_await ctx.Barrier(0);
      if (ctx.id() != 0) {
        co_await ctx.Read(addr, bytes);
      }
      co_await ctx.Barrier(1);
    }
  });
}

TEST(HomeEffect, WriterAtHomeCreatesNoDiffs) {
  SimConfig cfg = SmallConfig(ProtocolKind::kHlrc, 4);
  System sys(cfg);
  // One allocation: with block policy across 4 nodes, node 0 homes the first
  // quarter. Node 0 writes only its own quarter.
  const GlobalAddr addr = sys.space().AllocPageAligned(16 * 1024);
  RunProducerConsumer(sys, addr, 4 * 1024, 3);
  const NodeReport totals = sys.report().Totals();
  EXPECT_EQ(totals.proto.diffs_created, 0);
  EXPECT_EQ(totals.proto.diffs_applied, 0);
  EXPECT_GT(totals.proto.page_fetches, 0);
}

TEST(HomeEffect, RemoteHomeForcesDiffFlush) {
  SimConfig cfg = SmallConfig(ProtocolKind::kHlrc, 4);
  cfg.protocol.home_policy = HomePolicy::kSingleNode;
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(16 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    if (ctx.id() == 1) {  // Writer != home (home is node 0).
      co_await ctx.Write(addr, 1024);
      std::memset(ctx.Ptr<char>(addr), 7, 1024);
    }
    co_await ctx.Barrier(0);
    co_await ctx.Read(addr, 1024);
  });
  const NodeReport totals = sys.report().Totals();
  EXPECT_GT(totals.proto.diffs_created, 0);
  EXPECT_EQ(totals.proto.diffs_created, totals.proto.diffs_applied);
  // One flush message per diff (paper §4.6).
  EXPECT_EQ(totals.traffic.msgs_by_type[static_cast<int>(MsgType::kDiffFlush)],
            totals.proto.diffs_created);
}

TEST(HomeEffect, HlrcMissIsOneRoundTrip) {
  SimConfig cfg = SmallConfig(ProtocolKind::kHlrc, 4);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(16 * 1024);
  RunProducerConsumer(sys, addr, 4 * 1024, 2);
  const NodeReport totals = sys.report().Totals();
  EXPECT_EQ(totals.traffic.msgs_by_type[static_cast<int>(MsgType::kPageRequest)],
            totals.proto.page_fetches);
  EXPECT_EQ(totals.traffic.msgs_by_type[static_cast<int>(MsgType::kPageReply)],
            totals.proto.page_fetches);
}

TEST(Homeless, ReaderVisitsEveryWriterOfAPage) {
  // Two nodes false-share one page; a third reads it: the LRC reader must
  // send one diff request per writer (paper §2.1).
  SimConfig cfg = SmallConfig(ProtocolKind::kLrc, 3);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    if (ctx.id() < 2) {
      const GlobalAddr slot = addr + static_cast<GlobalAddr>(ctx.id()) * 8;
      co_await ctx.Write(slot, 8);
      *ctx.Ptr<int64_t>(slot) = ctx.id() + 1;
    }
    co_await ctx.Barrier(0);
    if (ctx.id() == 2) {
      co_await ctx.Read(addr, 16);
      EXPECT_EQ(ctx.Ptr<int64_t>(addr)[0], 1);
      EXPECT_EQ(ctx.Ptr<int64_t>(addr)[1], 2);
    }
  });
  const NodeReport& reader = sys.report().nodes[2];
  EXPECT_EQ(reader.proto.diff_requests_sent, 2);
  EXPECT_EQ(reader.proto.diffs_applied, 2);
}

TEST(Homeless, GcRunsUnderMemoryPressureAndNotForHlrc) {
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kHlrc}) {
    SimConfig cfg = SmallConfig(kind, 4);
    cfg.protocol.gc_threshold_bytes = 4 * 1024;  // Tiny: force GC quickly.
    System sys(cfg);
    const GlobalAddr addr = sys.space().AllocPageAligned(64 * 1024);
    sys.Run([&](NodeContext& ctx) -> Task<void> {
      for (int r = 0; r < 4; ++r) {
        const GlobalAddr mine = addr + static_cast<GlobalAddr>(ctx.id()) * 16 * 1024;
        co_await ctx.Write(mine, 16 * 1024);
        std::memset(ctx.Ptr<char>(mine), r + 1, 16 * 1024);
        co_await ctx.Barrier(0);
        const GlobalAddr theirs =
            addr + static_cast<GlobalAddr>((ctx.id() + 1) % 4) * 16 * 1024;
        co_await ctx.Read(theirs, 16 * 1024);
        co_await ctx.Barrier(1);
      }
    });
    const NodeReport totals = sys.report().Totals();
    if (kind == ProtocolKind::kLrc) {
      EXPECT_GT(totals.proto.gc_runs, 0);
    } else {
      EXPECT_EQ(totals.proto.gc_runs, 0);  // Paper §3.5: HLRC never collects.
    }
  }
}

TEST(Homeless, ProtocolMemoryExceedsHlrcMemory) {
  // Same workload; homeless high-water protocol memory should dominate the
  // home-based protocol's (paper Table 6).
  int64_t highwater[2] = {0, 0};
  const ProtocolKind kinds[2] = {ProtocolKind::kLrc, ProtocolKind::kHlrc};
  for (int k = 0; k < 2; ++k) {
    SimConfig cfg = SmallConfig(kinds[k], 8);
    System sys(cfg);
    const GlobalAddr addr = sys.space().AllocPageAligned(64 * 1024);
    sys.Run([&](NodeContext& ctx) -> Task<void> {
      for (int r = 0; r < 6; ++r) {
        const GlobalAddr mine = addr + static_cast<GlobalAddr>(ctx.id()) * 8 * 1024;
        co_await ctx.Write(mine, 8 * 1024);
        std::memset(ctx.Ptr<char>(mine), r + 1, 8 * 1024);
        co_await ctx.Barrier(0);
        const GlobalAddr theirs =
            addr + static_cast<GlobalAddr>((ctx.id() + 1) % 8) * 8 * 1024;
        co_await ctx.Read(theirs, 8 * 1024);
        co_await ctx.Barrier(1);
      }
    });
    for (const NodeReport& n : sys.report().nodes) {
      highwater[k] = std::max(highwater[k], n.proto_mem_highwater);
    }
  }
  EXPECT_GT(highwater[0], highwater[1]);
}

TEST(Locks, LocalReacquireCostsNothing) {
  SimConfig cfg = SmallConfig(ProtocolKind::kHlrc, 4);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(64);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    if (ctx.id() == 1) {
      for (int i = 0; i < 10; ++i) {
        // Lock 6's manager is node 2 (6 mod 4), so the first acquire is
        // remote; the token is then cached locally.
        co_await ctx.Lock(6);
        co_await ctx.Write(addr, 8);
        *ctx.Ptr<int64_t>(addr) += 1;
        co_await ctx.Unlock(6);
      }
    }
    co_await ctx.Barrier(0);
  });
  const NodeReport& n1 = sys.report().nodes[1];
  EXPECT_EQ(n1.proto.lock_acquires, 10);
  EXPECT_EQ(n1.proto.remote_acquires, 1);  // Only the first acquire talks.
}

TEST(Locks, GrantCarriesInvalidationsWithoutBarrier) {
  // Classic LRC visibility: updates propagate through the lock chain alone.
  SimConfig cfg = SmallConfig(ProtocolKind::kHlrc, 2);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(1024);
  int64_t seen = -1;
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    if (ctx.id() == 0) {
      co_await ctx.Lock(1);
      co_await ctx.Write(addr, 8);
      *ctx.Ptr<int64_t>(addr) = 77;
      co_await ctx.Unlock(1);
    } else {
      // Spin on the lock until the write is visible.
      while (seen != 77) {
        co_await ctx.Lock(1);
        co_await ctx.Read(addr, 8);
        seen = *ctx.Ptr<int64_t>(addr);
        co_await ctx.Unlock(1);
        co_await ctx.Compute(Micros(100));
      }
    }
  });
  EXPECT_EQ(seen, 77);
}

TEST(Overlap, MovesServicingOffTheComputeProcessor) {
  // Same workload under HLRC and OHLRC: the overlapped variant must show
  // co-processor busy time and fewer compute-processor interrupts.
  SimTime interrupts[2] = {0, 0};
  SimTime cop_busy[2] = {0, 0};
  SimTime total[2] = {0, 0};
  const ProtocolKind kinds[2] = {ProtocolKind::kHlrc, ProtocolKind::kOhlrc};
  for (int k = 0; k < 2; ++k) {
    SimConfig cfg = SmallConfig(kinds[k], 4);
    System sys(cfg);
    const GlobalAddr addr = sys.space().AllocPageAligned(32 * 1024);
    RunProducerConsumer(sys, addr, 16 * 1024, 4);
    const NodeReport totals = sys.report().Totals();
    interrupts[k] = totals.cpu_busy.Get(BusyCat::kInterrupt);
    cop_busy[k] = totals.cop_busy.Total();
    total[k] = sys.report().total_time;
  }
  EXPECT_GT(interrupts[0], interrupts[1]);
  EXPECT_EQ(cop_busy[0], 0);
  EXPECT_GT(cop_busy[1], 0);
  EXPECT_LT(total[1], total[0]);  // Overlapping helps (paper Table 2).
}

TEST(Accounting, BreakdownCoversWallTime) {
  SimConfig cfg = SmallConfig(ProtocolKind::kLrc, 4);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(16 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < 3; ++r) {
      co_await ctx.Lock(1);
      co_await ctx.Write(addr, 1024);
      *ctx.Ptr<int64_t>(addr) += 1;
      co_await ctx.Unlock(1);
      co_await ctx.Compute(Millis(1));
      co_await ctx.Barrier(0);
    }
  });
  for (const NodeReport& n : sys.report().nodes) {
    const SimTime accounted = n.cpu_busy.Total() + n.waits.Total();
    // Every instant of a node's run is either compute-processor busy time or
    // attributed wait time (small slack for op entry bookkeeping).
    EXPECT_NEAR(static_cast<double>(accounted), static_cast<double>(n.finish_time),
                static_cast<double>(n.finish_time) * 0.02);
  }
}

TEST(Barriers, ReusedBarrierIdsAcrossEpisodes) {
  SimConfig cfg = SmallConfig(ProtocolKind::kOlrc, 6);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < 10; ++r) {
      if (ctx.id() == r % 6) {
        co_await ctx.Write(addr, 8);
        *ctx.Ptr<int64_t>(addr) = r;
      }
      co_await ctx.Barrier(0);
      co_await ctx.Read(addr, 8);
      EXPECT_EQ(*ctx.Ptr<int64_t>(addr), r);
      co_await ctx.Barrier(0);
    }
  });
  EXPECT_EQ(sys.report().nodes[0].proto.barriers, 20);
}

// The barrier is one combining tree. Without --coalesce it has one level:
// nodes 1-5 are leaves under the manager, the paper's centralized barrier.
// With it the tree is 4-ary, so on 6 nodes node 1 has a child (node 5) and
// nodes 2-5 are leaves. In one empty barrier a leaf folds nothing, and a node
// with children pays barrier_handling per fold (its own arrival and each
// child's enter) and per release it sends.
TEST(Barriers, TreeRolesChargeTheirFolds) {
  for (ProtocolKind kind : testing::AllProtocols()) {
    std::vector<RunReport> reports;  // Flat, then coalesced.
    SimConfig cfg = SmallConfig(kind, 6);
    for (bool coalesce : {false, true}) {
      cfg.network.coalesce = coalesce;
      System sys(cfg);
      sys.Run([](NodeContext& ctx) -> Task<void> { co_await ctx.Barrier(0); });
      reports.push_back(sys.report());
    }
    auto handling = [&](const RunReport& r, NodeId n) {
      return r.nodes[static_cast<size_t>(n)].cpu_busy.Get(BusyCat::kWriteNotice) /
             cfg.costs.barrier_handling;
    };
    const RunReport& flat = reports[0];
    const RunReport& tree = reports[1];
    for (NodeId leaf = 2; leaf <= 5; ++leaf) {
      EXPECT_EQ(flat.nodes[leaf].cpu_busy.Get(BusyCat::kWriteNotice), 0) << leaf;
      EXPECT_EQ(tree.nodes[leaf].cpu_busy.Get(BusyCat::kWriteNotice), 0) << leaf;
      EXPECT_EQ(flat.nodes[leaf].traffic.protocol_bytes_sent,
                tree.nodes[leaf].traffic.protocol_bytes_sent)
          << leaf;
    }
    EXPECT_EQ(handling(flat, 1), 0) << ProtocolName(kind);
    EXPECT_EQ(handling(tree, 1), 3) << ProtocolName(kind);  // 2 folds, 1 release.
    EXPECT_EQ(handling(flat, 0), 11) << ProtocolName(kind);  // 6 folds, 5 releases.
    EXPECT_EQ(handling(tree, 0), 9) << ProtocolName(kind);   // 5 folds, 4 releases.
  }
}

}  // namespace
}  // namespace hlrc
