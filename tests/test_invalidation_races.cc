// Regression tests for invalidation races found during development.
//
// The barrier manager applies other nodes' write notices the moment their
// enter messages arrive — including while its own application is inside a
// page-fault resolution whose cost charges are stretched by interrupt load.
// A fault that completes after such an invalidation must re-resolve, or the
// node writes on a stale base (lost update). A huge receive-interrupt cost
// amplifies the window.
#include <gtest/gtest.h>

#include <cstring>

#include "src/svm/system.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

class InvalidationRaceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(InvalidationRaceTest, BusyManagerLockChainAccumulation) {
  // All nodes add into one lock-protected region whose page is repeatedly
  // invalidated; node 0 (the barrier manager) is last in the chain while
  // already swamped by other nodes' barrier-enter interrupts.
  constexpr int kNodes = 16;
  constexpr int kRounds = 3;
  SimConfig cfg = testing::SmallConfig(GetParam(), kNodes, 1 << 20, 1024);
  cfg.costs.receive_interrupt = Millis(2);  // Stretch every service window.
  System sys(cfg);
  const GlobalAddr arr = sys.space().AllocPageAligned(kNodes * 8);

  sys.Run([&](NodeContext& ctx) -> Task<void> {
    const int me = ctx.id();
    if (me == 0) {
      co_await ctx.Write(arr, kNodes * 8);
      std::memset(ctx.Ptr<int64_t>(arr), 0, kNodes * 8);
    }
    co_await ctx.Barrier(0);
    for (int r = 0; r < kRounds; ++r) {
      // Node 0 computes longest so it reaches the lock chain last, while
      // early finishers pile barrier enters onto it.
      co_await ctx.Compute(Micros(100) * (me == 0 ? 50 : me));
      co_await ctx.Lock(1);
      co_await ctx.Write(arr, kNodes * 8);
      int64_t* data = ctx.Ptr<int64_t>(arr);
      for (int s = 0; s < kNodes; ++s) {
        data[s] += me + 1 + s;
      }
      co_await ctx.Unlock(1);
      co_await ctx.Barrier(1);
      co_await ctx.Read(arr, kNodes * 8);
      co_await ctx.Barrier(2);
    }
  });

  int64_t base = 0;
  for (int n = 0; n < kNodes; ++n) {
    base += n + 1;
  }
  for (int node = 0; node < kNodes; ++node) {
    const int64_t* data = reinterpret_cast<const int64_t*>(sys.NodeMemory(node, arr));
    for (int s = 0; s < kNodes; ++s) {
      EXPECT_EQ(data[s], kRounds * (base + static_cast<int64_t>(kNodes) * s))
          << "node " << node << " slot " << s;
    }
  }
}

TEST_P(InvalidationRaceTest, WriteGrantSurvivesIntervalCloseDuringFault) {
  // A multi-page write grant where resolving the second page can overlap a
  // remote lock request that closes the interval and re-protects the first
  // page — the grant must re-upgrade it before the stores happen.
  constexpr int kNodes = 8;
  SimConfig cfg = testing::SmallConfig(GetParam(), kNodes, 1 << 20, 1024);
  System sys(cfg);
  const GlobalAddr arr = sys.space().AllocPageAligned(8 * 1024);

  sys.Run([&](NodeContext& ctx) -> Task<void> {
    const int me = ctx.id();
    for (int r = 0; r < 4; ++r) {
      co_await ctx.Lock(me % 4);  // Contended locks force forwards mid-fault.
      co_await ctx.Write(arr + static_cast<GlobalAddr>((me % 4) * 2048), 2048);
      int64_t* data = ctx.Ptr<int64_t>(arr + static_cast<GlobalAddr>((me % 4) * 2048));
      data[0] += 1;
      data[200] += 1;  // Second page of the grant.
      co_await ctx.Unlock(me % 4);
      co_await ctx.Compute(Micros(30));
    }
    co_await ctx.Barrier(0);
    co_await ctx.Read(arr, 8 * 1024);
  });

  for (int node = 0; node < kNodes; ++node) {
    for (int region = 0; region < 4; ++region) {
      const int64_t* data = reinterpret_cast<const int64_t*>(
          sys.NodeMemory(node, arr + static_cast<GlobalAddr>(region * 2048)));
      EXPECT_EQ(data[0], 8) << "node " << node << " region " << region;
      EXPECT_EQ(data[200], 8) << "node " << node << " region " << region;
    }
  }
}

TEST_P(InvalidationRaceTest, PageInvalidatedBehindTheGrantScanFaultsAgain) {
  // Node 0, the barrier manager, reads one valid page followed by 31 invalid
  // ones whose home is node 2. While its faults are in flight, node 1 writes
  // the valid page and enters the next barrier, and node 0 applies that
  // enter's write notice at once: it invalidates a page that node 0's grant
  // has already passed. The grant must fault that page again before the
  // program resumes, even though the scan resumes after each fault rather
  // than starting over.
  constexpr int kNodes = 3;
  constexpr int kPages = 32;
  constexpr int64_t kPageSize = 1024;
  constexpr int64_t kBytes = kPages * kPageSize;
  SimConfig cfg = testing::SmallConfig(GetParam(), kNodes, 1 << 20, kPageSize);
  System sys(cfg);
  // Block placement homes the k-th third of an allocation at node k.
  const GlobalAddr arr = sys.space().AllocPageAligned(kNodes * kBytes) + 2 * kBytes;
  bool granted = false;

  sys.Run([&](NodeContext& ctx) -> Task<void> {
    const int me = ctx.id();
    if (me == 2) {
      // Node 0 learns of these writes at barrier 0: pages 1..31 go invalid.
      co_await ctx.Write(arr + kPageSize, kBytes - kPageSize);
      std::memset(ctx.Ptr<std::byte>(arr + kPageSize), 1, kBytes - kPageSize);
    }
    co_await ctx.Barrier(0);
    if (me == 0) {
      co_await ctx.Read(arr, kBytes);
      granted = !ctx.NeedsAccess(arr, kBytes, false);
    } else if (me == 1) {
      co_await ctx.Write(arr, 8);
      *ctx.Ptr<int64_t>(arr) = 1;
    }
    co_await ctx.Barrier(1);
  });

  EXPECT_TRUE(granted);
  if (GetParam() != ProtocolKind::kErc) {
    // 31 misses, plus the valid page's once the enter invalidated it: the
    // race this test is about did happen.
    EXPECT_EQ(sys.report().nodes[0].proto.read_misses, kPages);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, InvalidationRaceTest,
                         ::testing::ValuesIn(testing::AllProtocols()),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return ProtocolName(info.param);
                         });

}  // namespace
}  // namespace hlrc
