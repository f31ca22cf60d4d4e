// System-level API behaviour: reports, phase snapshots, allocation, compute
// charging, and misuse detection.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <type_traits>

#include "src/svm/system.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

using testing::SmallConfig;

TEST(SystemApi, ComputeAdvancesVirtualTime) {
  System sys(SmallConfig(ProtocolKind::kHlrc, 2));
  sys.space().AllocPageAligned(1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    co_await ctx.Compute(Millis(5));
    co_await ctx.Barrier(0);
  });
  EXPECT_GE(sys.report().total_time, Millis(5));
  EXPECT_EQ(sys.report().nodes[0].Computation(), Millis(5));
}

TEST(SystemApi, ComputeFlopsUsesCalibration) {
  SimConfig cfg = SmallConfig(ProtocolKind::kHlrc, 1);
  cfg.costs.ns_per_flop = Nanos(100);
  System sys(cfg);
  sys.space().AllocPageAligned(1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    co_await ctx.ComputeFlops(1000);
  });
  EXPECT_EQ(sys.report().nodes[0].Computation(), Micros(100));
}

TEST(SystemApi, PhaseSnapshotsCaptureDeltas) {
  System sys(SmallConfig(ProtocolKind::kHlrc, 2));
  sys.space().AllocPageAligned(1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    ctx.SnapshotPhase(0);
    co_await ctx.Compute(Millis(1));
    co_await ctx.Barrier(0);
    ctx.SnapshotPhase(1);
    co_await ctx.Compute(Millis(2));
    co_await ctx.Barrier(1);
    ctx.SnapshotPhase(2);
  });
  const auto& phases = sys.report().phases;
  ASSERT_EQ(phases.size(), 6u);
  const NodeReport& p1 = phases.at({1, 0});
  const NodeReport& p2 = phases.at({2, 0});
  EXPECT_EQ(p2.cpu_busy.Get(BusyCat::kCompute) - p1.cpu_busy.Get(BusyCat::kCompute),
            Millis(2));
  EXPECT_GT(p2.finish_time, p1.finish_time);
}

TEST(SystemApi, NodeMemoryIsPerNode) {
  System sys(SmallConfig(ProtocolKind::kLrc, 2));
  const GlobalAddr addr = sys.space().AllocPageAligned(64);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    if (ctx.id() == 0) {
      co_await ctx.Write(addr, 8);
      *ctx.Ptr<int64_t>(addr) = 5;
    }
    co_return;  // No barrier: node 1 never learns of the write.
  });
  EXPECT_EQ(*reinterpret_cast<int64_t*>(sys.NodeMemory(0, addr)), 5);
  EXPECT_EQ(*reinterpret_cast<int64_t*>(sys.NodeMemory(1, addr)), 0);
}

TEST(SystemApi, NeedsAccessReflectsProtectionState) {
  System sys(SmallConfig(ProtocolKind::kHlrc, 2));
  const GlobalAddr addr = sys.space().AllocPageAligned(4096);
  bool before_write = false;
  bool after_write = true;
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    if (ctx.id() == 0) {
      before_write = ctx.NeedsAccess(addr, 8, true);
      co_await ctx.Write(addr, 8);
      after_write = ctx.NeedsAccess(addr, 8, true);
      *ctx.Ptr<int64_t>(addr) = 1;
    }
    co_await ctx.Barrier(0);
  });
  EXPECT_TRUE(before_write);   // Initially read-only: write would fault.
  EXPECT_FALSE(after_write);   // Granted.
}

TEST(SystemApi, ReadsAreFreeWhenPagesValid) {
  System sys(SmallConfig(ProtocolKind::kHlrc, 2));
  const GlobalAddr addr = sys.space().AllocPageAligned(4096);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    // All pages start valid (zero-filled everywhere): reads never fault.
    co_await ctx.Read(addr, 4096);
    co_await ctx.Barrier(0);
  });
  EXPECT_EQ(sys.report().Totals().proto.read_misses, 0);
  EXPECT_EQ(sys.report().Totals().traffic.msgs_sent,
            sys.report().Totals().traffic.msgs_received);
}

// Average() divides every counter of the summed report by the node count,
// and Totals() sums every counter. NodeReport is all int64 slots, so the
// check walks the raw slots: a counter added later is covered without
// touching this test.
TEST(RunReportTest, AverageHalvesEveryFieldOfTwoNodes) {
  static_assert(std::is_trivially_copyable_v<NodeReport>);
  static_assert(sizeof(NodeReport) % sizeof(int64_t) == 0);
  constexpr size_t kSlots = sizeof(NodeReport) / sizeof(int64_t);
  RunReport report;
  for (const int64_t scale : {1, 3}) {
    std::array<int64_t, kSlots> slots;
    for (size_t i = 0; i < kSlots; ++i) {
      slots[i] = scale * static_cast<int64_t>(i + 1);
    }
    NodeReport r;
    std::memcpy(static_cast<void*>(&r), slots.data(), sizeof(r));
    report.nodes.push_back(r);
  }
  const NodeReport avg = report.Average();
  const NodeReport tot = report.Totals();
  std::array<int64_t, kSlots> a;
  std::array<int64_t, kSlots> t;
  std::memcpy(a.data(), &avg, sizeof(avg));
  std::memcpy(t.data(), &tot, sizeof(tot));
  for (size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(t[i], 4 * static_cast<int64_t>(i + 1)) << "slot " << i;
    EXPECT_EQ(a[i], 2 * static_cast<int64_t>(i + 1)) << "slot " << i;
  }
}

TEST(SystemApiDeathTest, RecursiveAcquireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        System sys(SmallConfig(ProtocolKind::kHlrc, 2));
        sys.space().AllocPageAligned(64);
        sys.Run([&](NodeContext& ctx) -> Task<void> {
          co_await ctx.Lock(1);
          co_await ctx.Lock(1);  // Recursive: aborts.
        });
      },
      "recursive acquire");
}

TEST(SystemApiDeathTest, UnlockWithoutLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        System sys(SmallConfig(ProtocolKind::kHlrc, 2));
        sys.space().AllocPageAligned(64);
        sys.Run([&](NodeContext& ctx) -> Task<void> { co_await ctx.Unlock(3); });
      },
      "release of lock");
}

TEST(SystemApiDeathTest, MismatchedBarrierDeadlockDetected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        System sys(SmallConfig(ProtocolKind::kHlrc, 2));
        sys.space().AllocPageAligned(64);
        sys.Run([&](NodeContext& ctx) -> Task<void> {
          if (ctx.id() == 0) {
            co_await ctx.Barrier(0);  // Node 1 never arrives.
          }
        });
      },
      "deadlock");
}

}  // namespace
}  // namespace hlrc
