// Deeper property checks for the extension protocols: ERC's flush-barrier
// semantics and AURC's equivalence to HLRC at the data level.
#include <gtest/gtest.h>

#include <cstring>

#include "src/apps/app.h"
#include "src/svm/system.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

using testing::SmallConfig;

TEST(ErcProperties, LockChainNeverObservesStaleData) {
  // A tight increment chain under contention with stretched service windows:
  // the exact final count proves no grant ever overtook a flush.
  for (int trial = 0; trial < 4; ++trial) {
    SimConfig cfg = SmallConfig(ProtocolKind::kErc, 4 + trial);
    cfg.costs.receive_interrupt = Micros(500 * (trial + 1));
    System sys(cfg);
    const GlobalAddr addr = sys.space().AllocPageAligned(1024);
    const int rounds = 6;
    sys.Run([&](NodeContext& ctx) -> Task<void> {
      for (int r = 0; r < rounds; ++r) {
        co_await ctx.Lock(3);
        co_await ctx.Write(addr, 8);
        *ctx.Ptr<int64_t>(addr) += 1;
        co_await ctx.Unlock(3);
        // Unrelated write so later closes cover fresh intervals.
        co_await ctx.Write(addr + 512, 8);
        *ctx.Ptr<int64_t>(addr + 512) = r;
        co_await ctx.Compute(Micros(50 + 13 * ctx.id()));
      }
      co_await ctx.Barrier(0);
    });
    const int64_t expect = static_cast<int64_t>(rounds) * (4 + trial);
    for (int n = 0; n < 4 + trial; ++n) {
      EXPECT_EQ(*reinterpret_cast<int64_t*>(sys.NodeMemory(n, addr)), expect)
          << "trial " << trial << " node " << n;
    }
  }
}

TEST(ErcProperties, BarrierFlushesEverythingEverywhere) {
  // After a barrier, every node's copy of every written page is identical —
  // without any reads (the updates were pushed, not pulled).
  constexpr int kNodes = 6;
  SimConfig cfg = SmallConfig(ProtocolKind::kErc, kNodes);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(kNodes * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    const GlobalAddr mine = addr + static_cast<GlobalAddr>(ctx.id()) * 1024;
    co_await ctx.Write(mine, 1024);
    std::memset(ctx.Ptr<char>(mine), 0x40 + ctx.id(), 1024);
    co_await ctx.Barrier(0);
    // No reads at all.
  });
  for (int n = 0; n < kNodes; ++n) {
    for (int w = 0; w < kNodes; ++w) {
      const char* data = reinterpret_cast<const char*>(
          sys.NodeMemory(n, addr + static_cast<GlobalAddr>(w) * 1024));
      EXPECT_EQ(data[0], 0x40 + w) << "node " << n << " region " << w;
      EXPECT_EQ(data[1023], 0x40 + w) << "node " << n << " region " << w;
    }
  }
}

TEST(AurcProperties, MatchesHlrcResultsBitwise) {
  // AURC changes costs, not data flow: deterministic apps must produce the
  // exact same bytes as under HLRC.
  for (const std::string& name : {std::string("lu"), std::string("fft")}) {
    auto hlrc_app = MakeApp(name, AppScale::kTiny);
    auto aurc_app = MakeApp(name, AppScale::kTiny);
    SimConfig cfg = SmallConfig(ProtocolKind::kHlrc, 8, 16ll << 20, 1024);
    const AppRunResult a = RunApp(*hlrc_app, cfg);
    cfg.protocol.kind = ProtocolKind::kAurc;
    const AppRunResult b = RunApp(*aurc_app, cfg);
    EXPECT_TRUE(a.verified) << a.why;
    EXPECT_TRUE(b.verified) << b.why;
  }
}

TEST(AurcProperties, NoGarbageCollectionEver) {
  SimConfig cfg = SmallConfig(ProtocolKind::kAurc, 4);
  cfg.protocol.gc_threshold_bytes = 1024;  // Would trigger constantly on LRC.
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(32 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < 4; ++r) {
      const GlobalAddr mine = addr + static_cast<GlobalAddr>(ctx.id()) * 8 * 1024;
      co_await ctx.Write(mine, 8 * 1024);
      std::memset(ctx.Ptr<char>(mine), r + 1, 8 * 1024);
      co_await ctx.Barrier(0);
      co_await ctx.Read(addr, 32 * 1024);
      co_await ctx.Barrier(1);
    }
  });
  EXPECT_EQ(sys.report().Totals().proto.gc_runs, 0);
}

}  // namespace
}  // namespace hlrc
