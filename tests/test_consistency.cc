// Randomized release-consistency property tests.
//
// Programs perform integer read-modify-writes on a shared array under locks
// and barriers. Integer addition commutes exactly, so the final state is
// schedule-independent and can be checked against a host-side model — any
// lost update, stale read or mis-ordered diff shows up as an exact mismatch.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/svm/system.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

using testing::AllProtocols;

struct FuzzParams {
  ProtocolKind kind;
  uint64_t seed;
};

class ConsistencyFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

// Phase pattern modeled on the Water apps: an unlocked owner phase (disjoint
// slots), a locked accumulate phase (overlapping regions), repeated over
// several barrier-separated rounds.
TEST_P(ConsistencyFuzzTest, LockedAccumulationMatchesModel) {
  const FuzzParams params = GetParam();
  Rng setup_rng(params.seed);

  const int nodes = static_cast<int>(setup_rng.NextInt(2, 8));
  const int slots = static_cast<int>(setup_rng.NextInt(64, 512));  // int64 per slot.
  const int rounds = static_cast<int>(setup_rng.NextInt(1, 4));
  const int regions = static_cast<int>(setup_rng.NextInt(2, 8));

  // Randomize the configuration space too: page size, diff policy, GC
  // pressure, home migration, interrupt cost.
  const int64_t page_sizes[] = {512, 1024, 4096};
  SimConfig cfg = testing::SmallConfig(params.kind, nodes, 4 << 20,
                                       page_sizes[setup_rng.NextBounded(3)]);
  cfg.protocol.gc_threshold_bytes = setup_rng.NextBool(0.3) ? 16 << 10 : 4 << 20;
  // Discarded draw: it once chose the diff word size, and keeping it leaves
  // every later draw of each seed where it was.
  setup_rng.NextBool();
  cfg.protocol.diff_policy = setup_rng.NextBool(0.3) ? DiffPolicy::kLazy : DiffPolicy::kEager;
  cfg.protocol.migrate_homes = setup_rng.NextBool(0.3);
  if (setup_rng.NextBool(0.25)) {
    cfg.costs.receive_interrupt = Millis(2);  // Stretch the race windows.
  }
  if (setup_rng.NextBool(0.25)) {
    cfg.protocol.home_policy = HomePolicy::kRoundRobin;
  }
  System sys(cfg);
  const GlobalAddr arr = sys.space().AllocPageAligned(slots * 8);

  // Host-side model: final value of each slot.
  std::vector<int64_t> model(static_cast<size_t>(slots), 0);

  // Pre-generate each node's per-round plan so the model can be computed
  // independent of scheduling.
  struct Op {
    int region;
    std::vector<std::pair<int, int64_t>> adds;  // (slot, delta)
  };
  std::vector<std::vector<std::vector<Op>>> plan(static_cast<size_t>(nodes));
  const int region_size = slots / regions;
  for (int n = 0; n < nodes; ++n) {
    Rng rng(params.seed * 977 + static_cast<uint64_t>(n));
    plan[static_cast<size_t>(n)].resize(static_cast<size_t>(rounds));
    for (int r = 0; r < rounds; ++r) {
      const int ops = static_cast<int>(rng.NextInt(1, 5));
      for (int o = 0; o < ops; ++o) {
        Op op;
        op.region = static_cast<int>(rng.NextInt(0, regions - 1));
        const int base = op.region * region_size;
        const int count = static_cast<int>(rng.NextInt(1, 10));
        for (int a = 0; a < count; ++a) {
          const int slot = base + static_cast<int>(rng.NextInt(0, region_size - 1));
          const int64_t delta = rng.NextInt(1, 1000);
          op.adds.emplace_back(slot, delta);
          model[static_cast<size_t>(slot)] += delta;
        }
        plan[static_cast<size_t>(n)][static_cast<size_t>(r)].push_back(std::move(op));
      }
    }
  }

  sys.Run([&](NodeContext& ctx) -> Task<void> {
    const int me = ctx.id();
    if (me == 0) {
      co_await ctx.Write(arr, slots * 8);
      std::memset(ctx.Ptr<int64_t>(arr), 0, static_cast<size_t>(slots) * 8);
    }
    co_await ctx.Barrier(0);
    for (int r = 0; r < rounds; ++r) {
      for (const Op& op : plan[static_cast<size_t>(me)][static_cast<size_t>(r)]) {
        co_await ctx.Lock(op.region);
        const GlobalAddr raddr = arr + static_cast<GlobalAddr>(op.region * region_size) * 8;
        co_await ctx.Write(raddr, region_size * 8);
        int64_t* data = ctx.Ptr<int64_t>(arr);
        for (const auto& [slot, delta] : op.adds) {
          data[slot] += delta;
        }
        co_await ctx.Unlock(op.region);
        co_await ctx.Compute(Micros(20));
      }
      co_await ctx.Barrier(1);
      // Everyone audits the full array mid-run: all committed sums from
      // previous rounds must be visible after the barrier.
      co_await ctx.Read(arr, slots * 8);
      co_await ctx.Barrier(2);
    }
  });

  // After the final barrier every node read the array; all copies must equal
  // the model.
  for (int n = 0; n < nodes; ++n) {
    const int64_t* data = reinterpret_cast<const int64_t*>(sys.NodeMemory(n, arr));
    for (int s = 0; s < slots; ++s) {
      ASSERT_EQ(data[s], model[static_cast<size_t>(s)])
          << "node " << n << " slot " << s << " kind " << ProtocolName(params.kind)
          << " seed " << params.seed;
    }
  }
}

// Single-writer broadcast chains: each round one pseudo-random writer stamps
// a region; after the barrier everyone must see exactly the last stamp.
TEST_P(ConsistencyFuzzTest, RotatingWriterVisibility) {
  const FuzzParams params = GetParam();
  Rng setup_rng(params.seed ^ 0xabcdef);

  const int nodes = static_cast<int>(setup_rng.NextInt(2, 8));
  const int slots = 256;
  const int rounds = 6;

  SimConfig cfg = testing::SmallConfig(params.kind, nodes, 4 << 20, 1024);
  System sys(cfg);
  const GlobalAddr arr = sys.space().AllocPageAligned(slots * 8);

  std::vector<int> fail_count(static_cast<size_t>(nodes), 0);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    Rng rng(params.seed + 5);
    for (int r = 0; r < rounds; ++r) {
      const NodeId writer = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(ctx.nodes())));
      if (ctx.id() == writer) {
        co_await ctx.Write(arr, slots * 8);
        int64_t* data = ctx.Ptr<int64_t>(arr);
        for (int s = 0; s < slots; ++s) {
          data[s] = r * 1000 + s;
        }
      }
      co_await ctx.Barrier(0);
      co_await ctx.Read(arr, slots * 8);
      const int64_t* data = ctx.Ptr<int64_t>(arr);
      for (int s = 0; s < slots; ++s) {
        if (data[s] != r * 1000 + s) {
          ++fail_count[static_cast<size_t>(ctx.id())];
        }
      }
      co_await ctx.Barrier(1);
    }
  });
  for (int n = 0; n < nodes; ++n) {
    EXPECT_EQ(fail_count[static_cast<size_t>(n)], 0) << "node " << n;
  }
}

std::vector<FuzzParams> FuzzCases() {
  std::vector<FuzzParams> cases;
  for (ProtocolKind kind : AllProtocols()) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      cases.push_back(FuzzParams{kind, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ConsistencyFuzzTest, ::testing::ValuesIn(FuzzCases()),
                         [](const ::testing::TestParamInfo<FuzzParams>& info) {
                           return std::string(ProtocolName(info.param.kind)) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace hlrc
