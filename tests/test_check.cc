// Tests for the consistency checker (src/check): oracle semantics on
// hand-built histories, explorer determinism, clean-protocol sweeps, and the
// mutation regression — a protocol seeded with a known bug must be flagged
// within a bounded number of seeds and reproduce from the reported seed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/litmus.h"
#include "src/check/explorer.h"
#include "src/check/oracle.h"

namespace hlrc {
namespace {

constexpr int kNodes = 4;

MemoryAccess Acc(NodeId node, GlobalAddr addr, uint64_t value, bool is_write,
                 std::vector<uint32_t> vt, SimTime when) {
  MemoryAccess a;
  a.node = node;
  a.addr = addr;
  a.value = value;
  a.is_write = is_write;
  a.vt = VectorClock(kNodes);
  for (int n = 0; n < kNodes; ++n) {
    a.vt.Set(n, vt[static_cast<size_t>(n)]);
  }
  a.interval = a.vt.Get(node) + 1;
  a.when = when;
  return a;
}

TEST(LrcOracle, AcceptsHappensBeforePropagation) {
  LrcOracle oracle(kNodes);
  oracle.OnAccess(Acc(0, 0x100, 5, true, {0, 0, 0, 0}, 10));
  // Node 1's timestamp covers node 0's interval 1, so it must (and does) see
  // the write.
  oracle.OnAccess(Acc(1, 0x100, 5, false, {1, 0, 0, 0}, 20));
  EXPECT_TRUE(oracle.ok());
  EXPECT_EQ(oracle.reads_checked(), 1);
  EXPECT_EQ(oracle.writes_recorded(), 1);
}

TEST(LrcOracle, RejectsMaskedStaleValue) {
  LrcOracle oracle(kNodes);
  oracle.OnAccess(Acc(0, 0x100, 5, true, {0, 0, 0, 0}, 10));
  // Node 1 saw interval (0,1) before overwriting: write 6 masks write 5.
  oracle.OnAccess(Acc(1, 0x100, 6, true, {1, 0, 0, 0}, 20));
  // Node 2 has seen both intervals; returning the masked 5 is a violation.
  oracle.OnAccess(Acc(2, 0x100, 5, false, {1, 1, 0, 0}, 30));
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.violations()[0].description.find("stale"), std::string::npos);
}

TEST(LrcOracle, AcceptsLatestOfChain) {
  LrcOracle oracle(kNodes);
  oracle.OnAccess(Acc(0, 0x100, 5, true, {0, 0, 0, 0}, 10));
  oracle.OnAccess(Acc(1, 0x100, 6, true, {1, 0, 0, 0}, 20));
  oracle.OnAccess(Acc(2, 0x100, 6, false, {1, 1, 0, 0}, 30));
  EXPECT_TRUE(oracle.ok());
}

TEST(LrcOracle, AcceptsEitherConcurrentWrite) {
  LrcOracle oracle(kNodes);
  // Two concurrent writes: neither vector timestamp covers the other.
  oracle.OnAccess(Acc(0, 0x100, 5, true, {0, 0, 0, 0}, 10));
  oracle.OnAccess(Acc(1, 0x100, 6, true, {0, 0, 0, 0}, 11));
  // A reader that has seen both may return either under RC.
  oracle.OnAccess(Acc(2, 0x100, 5, false, {1, 1, 0, 0}, 30));
  oracle.OnAccess(Acc(3, 0x100, 6, false, {1, 1, 0, 0}, 31));
  EXPECT_TRUE(oracle.ok());
}

TEST(LrcOracle, ZeroReadLegalOnlyUntilAWriteHappensBefore) {
  LrcOracle oracle(kNodes);
  // No writes yet: initial zero is the only value.
  oracle.OnAccess(Acc(1, 0x100, 0, false, {0, 0, 0, 0}, 5));
  EXPECT_TRUE(oracle.ok());
  oracle.OnAccess(Acc(0, 0x100, 5, true, {0, 0, 0, 0}, 10));
  // Concurrent with the write: zero still legal.
  oracle.OnAccess(Acc(2, 0x100, 0, false, {0, 0, 0, 0}, 15));
  EXPECT_TRUE(oracle.ok());
  // Covers the write: the initial zero is masked.
  oracle.OnAccess(Acc(3, 0x100, 0, false, {1, 0, 0, 0}, 20));
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.violations()[0].description.find("zero"), std::string::npos);
}

TEST(LrcOracle, FlagsValueNeverWritten) {
  LrcOracle oracle(kNodes);
  oracle.OnAccess(Acc(0, 0x100, 5, true, {0, 0, 0, 0}, 10));
  oracle.OnAccess(Acc(1, 0x100, 77, false, {1, 0, 0, 0}, 20));
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.violations()[0].description.find("never written"), std::string::npos);
}

TEST(LrcOracle, ProgramOrderOrdersSameNodeAccesses) {
  LrcOracle oracle(kNodes);
  // Same node, same timestamp: the second write masks the first in program
  // order, so a remote reader covering the interval must not see 5.
  oracle.OnAccess(Acc(0, 0x100, 5, true, {0, 0, 0, 0}, 10));
  oracle.OnAccess(Acc(0, 0x100, 6, true, {0, 0, 0, 0}, 11));
  oracle.OnAccess(Acc(1, 0x100, 5, false, {1, 0, 0, 0}, 20));
  EXPECT_FALSE(oracle.ok());
}

TEST(Explorer, SameSeedSameRun) {
  CheckConfig cfg;
  cfg.litmus = "message-passing";
  cfg.sim.protocol.kind = ProtocolKind::kHlrc;
  cfg.sim.seed = 12345;
  const CheckResult a = RunOne(cfg);
  const CheckResult b = RunOne(cfg);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.decisions_used, b.decisions_used);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.reads_checked, b.reads_checked);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].kind, b.trace[i].kind);
    EXPECT_EQ(a.trace[i].value, b.trace[i].value);
  }
}

TEST(Explorer, DifferentSeedsPerturbTheSchedule) {
  CheckConfig cfg;
  cfg.litmus = "store-buffer";
  cfg.sim.seed = 1;
  const CheckResult a = RunOne(cfg);
  cfg.sim.seed = 2;
  const CheckResult b = RunOne(cfg);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  // Jitter shifts delivery times, so the runs' virtual times diverge.
  EXPECT_NE(a.sim_time, b.sim_time);
}

TEST(Explorer, DecisionLimitZeroMatchesChaosDisabled) {
  CheckConfig limited;
  limited.litmus = "lock-handoff";
  limited.sim.seed = 9;
  limited.decision_limit = 0;
  CheckConfig off;
  off.litmus = "lock-handoff";
  off.sim.seed = 9;
  off.permute_tasks = false;
  off.max_jitter = 0;
  const CheckResult a = RunOne(limited);
  const CheckResult b = RunOne(off);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.events, b.events);
}

TEST(Explorer, CleanProtocolsSurviveMiniSweep) {
  const ProtocolKind kProtocols[] = {ProtocolKind::kLrc, ProtocolKind::kErc,
                                     ProtocolKind::kHlrc, ProtocolKind::kAurc};
  for (const std::string& litmus : LitmusNames()) {
    for (ProtocolKind protocol : kProtocols) {
      CheckConfig cfg;
      cfg.litmus = litmus;
      cfg.sim.protocol.kind = protocol;
      const SweepResult sweep = Sweep(cfg, /*first_seed=*/1, /*seeds=*/5);
      EXPECT_EQ(sweep.failures, 0)
          << litmus << " under " << ProtocolName(protocol) << " first failing seed "
          << sweep.first_failing_seed;
      EXPECT_GT(sweep.reads_checked, 0);
    }
  }
}

TEST(Explorer, SurvivesFaultInjectionComposition) {
  CheckConfig cfg;
  cfg.litmus = "barrier-propagation";
  cfg.sim.protocol.kind = ProtocolKind::kHlrc;
  cfg.sim.fault.drop_prob = 0.05;
  cfg.sim.reliability.enabled = true;
  const SweepResult sweep = Sweep(cfg, /*first_seed=*/1, /*seeds=*/5);
  EXPECT_EQ(sweep.failures, 0);
}

// The coalesced wire plane (frame packing, request combining, piggybacked
// acks, barrier tree) must be invisible to the consistency oracle: a 200-seed
// chaos sweep through the coalesced paths finds no violation, and the sweep
// genuinely exercises them (deterministically, so the counters are stable).
// 13 nodes fill two levels of the 4-ary barrier tree, so interior nodes fold
// and forward combined enters and fan their releases out.
TEST(Explorer, CoalescedWirePlaneSurvivesSweep) {
  for (ProtocolKind protocol : {ProtocolKind::kHlrc, ProtocolKind::kLrc}) {
    CheckConfig cfg;
    cfg.litmus = "barrier-propagation";
    cfg.sim.nodes = 13;
    cfg.sim.protocol.kind = protocol;
    cfg.sim.network.coalesce = true;
    cfg.sim.reliability.enabled = true;  // Engages ack piggybacking too.
    const SweepResult sweep = Sweep(cfg, /*first_seed=*/1, /*seeds=*/200);
    EXPECT_EQ(sweep.failures, 0)
        << ProtocolName(protocol) << " first failing seed " << sweep.first_failing_seed;
    EXPECT_GT(sweep.reads_checked, 0);
  }
}

// The mutation regression: a protocol with a seeded bug must be flagged
// within 200 seeds, the reported seed must reproduce, and minimization must
// still fail at its reduced decision limit.
void ExpectMutationCaught(ProtocolKind protocol, TestMutation mutation) {
  CheckConfig cfg;
  cfg.litmus = "barrier-propagation";
  cfg.sim.protocol.kind = protocol;
  cfg.sim.protocol.mutation = mutation;
  const SweepResult sweep = Sweep(cfg, /*first_seed=*/1, /*seeds=*/200);
  ASSERT_TRUE(sweep.found_failure)
      << TestMutationName(mutation) << " not flagged in 200 seeds under "
      << ProtocolName(protocol);
  EXPECT_LE(sweep.first_failing_seed, 200u);

  // Reproduce from the reported seed alone.
  cfg.sim.seed = sweep.first_failing_seed;
  const CheckResult replay = RunOne(cfg);
  ASSERT_FALSE(replay.ok);
  EXPECT_FALSE(replay.violations.empty());

  // The minimized schedule still fails, at a no-larger decision limit.
  const MinimizedSchedule min = Minimize(cfg);
  EXPECT_FALSE(min.result.ok);
  EXPECT_LE(min.config.decision_limit, replay.decisions_used);
}

TEST(MutationRegression, HlrcSkipDiffApplyFlagged) {
  ExpectMutationCaught(ProtocolKind::kHlrc, TestMutation::kHlrcSkipDiffApply);
}

TEST(MutationRegression, AurcSkipDiffApplyFlagged) {
  ExpectMutationCaught(ProtocolKind::kAurc, TestMutation::kHlrcSkipDiffApply);
}

TEST(MutationRegression, LrcSkipInvalidateFlagged) {
  ExpectMutationCaught(ProtocolKind::kLrc, TestMutation::kLrcSkipInvalidate);
}

TEST(Litmus, ValuesAreUniqueAndNonZero) {
  EXPECT_NE(LitmusValue(0, 0, 0), 0u);
  EXPECT_NE(LitmusValue(0, 0, 0), LitmusValue(0, 0, 1));
  EXPECT_NE(LitmusValue(0, 0, 0), LitmusValue(0, 1, 0));
  EXPECT_NE(LitmusValue(0, 0, 0), LitmusValue(1, 0, 0));
}

TEST(Litmus, UnknownNameDies) {
  LitmusConfig cfg;
  EXPECT_DEATH(MakeLitmus("no-such-litmus", cfg), "litmus");
}

}  // namespace
}  // namespace hlrc
