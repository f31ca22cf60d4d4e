// Home migration (extension): a page with a stable remote writer gets its
// home transferred to that writer, converting flush traffic into the home
// effect. Correctness must hold through transfers, forwarding, and
// path-shortened fetches.
#include <gtest/gtest.h>

#include <cstring>

#include "src/apps/app.h"
#include "src/check/oracle.h"
#include "src/common/rng.h"
#include "src/svm/system.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

using testing::SmallConfig;

int64_t Transfers(const System& sys) {
  int64_t n = 0;
  for (const NodeReport& r : sys.report().nodes) {
    n += r.traffic.msgs_by_type[static_cast<int>(MsgType::kHomeTransfer)];
  }
  return n;
}

SimConfig MigrConfig(int nodes, bool migrate) {
  SimConfig cfg = SmallConfig(ProtocolKind::kHlrc, nodes);
  cfg.protocol.home_policy = HomePolicy::kSingleNode;  // Writers never match.
  cfg.protocol.migrate_homes = migrate;
  return cfg;
}

void RunSteadyWriter(System& sys, GlobalAddr addr, int rounds) {
  sys.Run([&, rounds](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < rounds; ++r) {
      if (ctx.id() == 1) {  // Stable writer, never the static home (node 0).
        co_await ctx.Write(addr, 2048);
        int64_t* data = ctx.Ptr<int64_t>(addr);
        for (int i = 0; i < 256; ++i) {
          data[i] = r * 1000 + i;
        }
      }
      co_await ctx.Barrier(0);
      co_await ctx.Read(addr, 2048);
      const int64_t* data = ctx.Ptr<int64_t>(addr);
      for (int i = 0; i < 256; i += 37) {
        EXPECT_EQ(data[i], r * 1000 + i) << "node " << ctx.id() << " round " << r;
      }
      co_await ctx.Barrier(1);
    }
  });
}

TEST(HomeMigration, TransfersHomeToStableWriterAndStopsDiffing) {
  int64_t diffs[2] = {0, 0};
  for (int m = 0; m < 2; ++m) {
    SimConfig cfg = MigrConfig(4, m == 1);
    System sys(cfg);
    const GlobalAddr addr = sys.space().AllocPageAligned(2048);
    RunSteadyWriter(sys, addr, 10);
    diffs[m] = sys.report().Totals().proto.diffs_created;
    if (m == 1) {
      EXPECT_GE(Transfers(sys), 1);
    } else {
      EXPECT_EQ(Transfers(sys), 0);
    }
  }
  // Once migrated, the writer is home: diff creation stops after ~threshold
  // rounds instead of once per round.
  EXPECT_LT(diffs[1], diffs[0] / 2);
}

TEST(HomeMigration, MigrationImprovesSteadyProducerTime) {
  SimTime total[2] = {0, 0};
  for (int m = 0; m < 2; ++m) {
    SimConfig cfg = MigrConfig(8, m == 1);
    System sys(cfg);
    const GlobalAddr addr = sys.space().AllocPageAligned(8 * 1024);
    RunSteadyWriter(sys, addr, 12);
    total[m] = sys.report().total_time;
  }
  EXPECT_LT(total[1], total[0]);
}

TEST(HomeMigration, AlternatingWritersDoNotThrash) {
  // Two writers alternating below the threshold: no transfer should happen,
  // and the data must stay exact.
  SimConfig cfg = MigrConfig(4, true);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < 12; ++r) {
      if (ctx.id() == 1 + r % 2) {
        co_await ctx.Write(addr, 8);
        *ctx.Ptr<int64_t>(addr) = r;
      }
      co_await ctx.Barrier(0);
      co_await ctx.Read(addr, 8);
      EXPECT_EQ(*ctx.Ptr<int64_t>(addr), r) << "node " << ctx.id();
      co_await ctx.Barrier(1);
    }
  });
  EXPECT_EQ(Transfers(sys), 0);
}

TEST(HomeMigration, SuccessiveMigrationsFollowTheWriter) {
  // Writer 1 for a while, then writer 2: the home should migrate twice and
  // everything stays correct (forwarding chains, path shortening).
  SimConfig cfg = MigrConfig(4, true);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < 16; ++r) {
      const NodeId writer = r < 8 ? 1 : 2;
      if (ctx.id() == writer) {
        co_await ctx.Write(addr, 512);
        int64_t* data = ctx.Ptr<int64_t>(addr);
        for (int i = 0; i < 64; ++i) {
          data[i] = r * 100 + i;
        }
      }
      co_await ctx.Barrier(0);
      co_await ctx.Read(addr, 512);
      const int64_t* data = ctx.Ptr<int64_t>(addr);
      for (int i = 0; i < 64; i += 13) {
        EXPECT_EQ(data[i], r * 100 + i) << "node " << ctx.id() << " round " << r;
      }
      co_await ctx.Barrier(1);
    }
  });
  EXPECT_GE(Transfers(sys), 2);
}

TEST(HomeMigration, AppsVerifyWithMigrationAndAdverseHomes) {
  // Worst-case static placement + migration: results must stay exact and
  // migration should recover some of the home effect.
  for (const std::string& name : {std::string("sor"), std::string("water-nsq")}) {
    auto app = MakeApp(name, AppScale::kTiny);
    SimConfig cfg = MigrConfig(8, true);
    cfg.shared_bytes = 16ll << 20;
    const AppRunResult r = RunApp(*app, cfg);
    EXPECT_TRUE(r.verified) << name << ": " << r.why;
  }
}

TEST(HomeMigration, FuzzWithMigrationEnabled) {
  // The integer consistency fuzz pattern under adverse homes + migration.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 31);
    const int nodes = static_cast<int>(rng.NextInt(2, 8));
    SimConfig cfg = MigrConfig(nodes, true);
    System sys(cfg);
    const int slots = 256;
    const GlobalAddr arr = sys.space().AllocPageAligned(slots * 8);
    std::vector<int64_t> model(slots, 0);
    std::vector<std::vector<std::pair<int, int64_t>>> plan(static_cast<size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      Rng prng(seed * 977 + static_cast<uint64_t>(n));
      for (int o = 0; o < 8; ++o) {
        const int slot = static_cast<int>(prng.NextBounded(slots));
        const int64_t delta = prng.NextInt(1, 99);
        plan[static_cast<size_t>(n)].emplace_back(slot, delta);
        model[static_cast<size_t>(slot)] += delta;
      }
    }
    sys.Run([&](NodeContext& ctx) -> Task<void> {
      for (const auto& [slot, delta] : plan[static_cast<size_t>(ctx.id())]) {
        co_await ctx.Lock(1);
        co_await ctx.Write(arr, slots * 8);
        ctx.Ptr<int64_t>(arr)[slot] += delta;
        co_await ctx.Unlock(1);
        co_await ctx.Compute(Micros(40));
      }
      co_await ctx.Barrier(0);
      co_await ctx.Read(arr, slots * 8);
    });
    for (int n = 0; n < nodes; ++n) {
      const int64_t* data = reinterpret_cast<const int64_t*>(sys.NodeMemory(n, arr));
      for (int sidx = 0; sidx < slots; ++sidx) {
        ASSERT_EQ(data[sidx], model[static_cast<size_t>(sidx)])
            << "seed " << seed << " node " << n << " slot " << sidx;
      }
    }
  }
}


TEST(HomeMigration, SorAtScaleWithAdverseHomes) {
  // Regression for two migration hazards found at 32 nodes: transferring a
  // page whose (old) home holds it dirty in its open interval, and migrating
  // while a local fault waits on in-flight diffs.
  auto app = MakeApp("sor", AppScale::kTiny);
  SimConfig cfg = MigrConfig(32, true);
  cfg.shared_bytes = 16ll << 20;
  const AppRunResult r = RunApp(*app, cfg);
  EXPECT_TRUE(r.verified) << r.why;
}

TEST(HomeMigration, MixedWritersOnOnePageStayExact) {
  // Two writers false-sharing one page under migration: node 2's flushes
  // reset node 1's streak, but only every third round, so node 1 earns the
  // home between them; the data must stay exact through the transfer
  // (double-install or stale-forwarded-reply bugs would corrupt it).
  SimConfig cfg = MigrConfig(6, true);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < 10; ++r) {
      // Node 1 writes half the page every round (earning the migration),
      // while node 2 writes the other half now and then (false sharing keeps
      // fetches flying).
      if (ctx.id() == 1) {
        co_await ctx.Lock(1);
        co_await ctx.Write(addr, 256);
        for (int i = 0; i < 32; ++i) {
          ctx.Ptr<int64_t>(addr)[i] = r * 100 + i;
        }
        co_await ctx.Unlock(1);
      } else if (ctx.id() == 2 && r % 3 == 2) {
        co_await ctx.Lock(2);
        co_await ctx.Write(addr + 512, 256);
        for (int i = 0; i < 32; ++i) {
          ctx.Ptr<int64_t>(addr + 512)[i] = r * 1000 + i;
        }
        co_await ctx.Unlock(2);
      }
      co_await ctx.Barrier(0);
      co_await ctx.Read(addr, 1024);
      const int64_t* lo = ctx.Ptr<int64_t>(addr);
      const int64_t* hi = ctx.Ptr<int64_t>(addr + 512);
      const int last2 = r < 2 ? -1 : r - (r - 2) % 3;  // Node 2's latest round.
      for (int i = 0; i < 32; i += 7) {
        EXPECT_EQ(lo[i], r * 100 + i) << "node " << ctx.id() << " round " << r;
        EXPECT_EQ(hi[i], last2 < 0 ? 0 : last2 * 1000 + i)
            << "node " << ctx.id() << " round " << r;
      }
      co_await ctx.Barrier(1);
    }
  });
  EXPECT_GE(Transfers(sys), 1);
}

// Migration composed with a lossy, delaying fabric, validated by the LRC
// oracle on every observed word access: a home transfer racing a retransmit
// (stale forwarded reply, double-install) would surface as a masked read.
// StoreWord gives every write a location-unique value so the oracle
// identifies the originating write exactly.
void RunMigratingWriterUnderFaults(ProtocolKind proto, uint64_t seed) {
  SimConfig cfg = MigrConfig(4, true);
  cfg.protocol.kind = proto;
  cfg.fault.drop_prob = 0.03;
  cfg.fault.delay_prob = 0.10;
  cfg.fault.seed = seed * 7919 + 1;
  cfg.reliability.enabled = true;
  System sys(cfg);
  LrcOracle oracle(cfg.nodes);
  sys.SetAccessObserver(&oracle);
  const int slots = 16;
  const GlobalAddr addr = sys.space().AllocPageAligned(slots * 8);
  const int rounds = 8;
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < rounds; ++r) {
      if (ctx.id() == 1) {  // Stable writer, never the static home (node 0).
        for (int i = 0; i < slots; ++i) {
          co_await ctx.StoreWord(addr + i * 8,
                                 static_cast<uint64_t>(r * 1000 + i + 1));
        }
      }
      co_await ctx.Barrier(0);
      for (int i = 0; i < slots; i += 5) {
        const uint64_t v = co_await ctx.LoadWord(addr + i * 8);
        EXPECT_EQ(v, static_cast<uint64_t>(r * 1000 + i + 1))
            << ProtocolName(proto) << " node " << ctx.id() << " round " << r;
      }
      co_await ctx.Barrier(1);
    }
  });
  EXPECT_TRUE(oracle.ok()) << ProtocolName(proto) << " seed " << seed << ": "
                           << (oracle.ok() ? ""
                                           : oracle.violations().front().description);
  EXPECT_GT(oracle.reads_checked(), 0);
  EXPECT_GE(Transfers(sys), 1) << ProtocolName(proto) << " seed " << seed;
}

TEST(HomeMigration, FaultInjectedMigrationIsOracleCleanHlrc) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunMigratingWriterUnderFaults(ProtocolKind::kHlrc, seed);
  }
}

TEST(HomeMigration, FaultInjectedMigrationIsOracleCleanAurc) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunMigratingWriterUnderFaults(ProtocolKind::kAurc, seed);
  }
}

TEST(HomeMigration, MetricsObservationIsBitIdentical) {
  // Golden pin: metrics are pure observation, so a migrating run with the
  // sampler attached must produce the exact report of the same run without
  // it — total time, per-node finish times, traffic and transfer counts.
  RunReport reports[2];
  for (int m = 0; m < 2; ++m) {
    SimConfig cfg = MigrConfig(4, true);
    System sys(cfg);
    if (m == 1) {
      sys.EnableMetrics(Micros(500));
    }
    const GlobalAddr addr = sys.space().AllocPageAligned(2048);
    RunSteadyWriter(sys, addr, 10);
    reports[m] = sys.report();
  }
  EXPECT_EQ(reports[0].total_time, reports[1].total_time);
  ASSERT_EQ(reports[0].nodes.size(), reports[1].nodes.size());
  for (size_t n = 0; n < reports[0].nodes.size(); ++n) {
    const NodeReport& a = reports[0].nodes[n];
    const NodeReport& b = reports[1].nodes[n];
    EXPECT_EQ(a.finish_time, b.finish_time) << "node " << n;
    EXPECT_EQ(a.traffic.msgs_sent, b.traffic.msgs_sent) << "node " << n;
    EXPECT_EQ(a.proto.diffs_created, b.proto.diffs_created) << "node " << n;
    EXPECT_EQ(a.traffic.msgs_by_type[static_cast<int>(MsgType::kHomeTransfer)],
              b.traffic.msgs_by_type[static_cast<int>(MsgType::kHomeTransfer)])
        << "node " << n;
  }
}

}  // namespace
}  // namespace hlrc
