#include "src/fault/fault_injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/fault/fault_plan.h"
#include "src/svm/system.h"

namespace hlrc {
namespace {

bool SameDecision(const FaultDecision& a, const FaultDecision& b) {
  return a.drop == b.drop && a.corrupt == b.corrupt && a.duplicate == b.duplicate &&
         a.extra_delay == b.extra_delay;
}

// A deterministic synthetic frame stream: cycles node pairs and message types.
std::vector<FaultDecision> Decide(FaultInjector& inj, int frames) {
  std::vector<FaultDecision> out;
  for (int i = 0; i < frames; ++i) {
    const NodeId src = i % 4;
    const NodeId dst = (i + 1) % 4;
    const MsgType type = (i % 2 == 0) ? MsgType::kPageRequest : MsgType::kDiffFlush;
    out.push_back(inj.OnTransmit(src, dst, type, static_cast<SimTime>(i) * Micros(10),
                                 /*retransmit=*/false));
  }
  return out;
}

TEST(FaultInjector, DeterministicForFixedSeed) {
  FaultPlan plan;
  plan.seed = 123;
  plan.drop_prob = 0.3;
  plan.dup_prob = 0.1;
  plan.delay_prob = 0.2;
  FaultInjector a(plan);
  FaultInjector b(plan);
  const auto da = Decide(a, 500);
  const auto db = Decide(b, 500);
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_TRUE(SameDecision(da[i], db[i])) << "decision " << i << " diverged";
  }
  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
  EXPECT_GT(a.counters().dropped, 0);
  EXPECT_GT(a.counters().delayed, 0);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultPlan plan;
  plan.drop_prob = 0.3;
  plan.seed = 1;
  FaultInjector a(plan);
  plan.seed = 2;
  FaultInjector b(plan);
  const auto da = Decide(a, 500);
  const auto db = Decide(b, 500);
  int differing = 0;
  for (size_t i = 0; i < da.size(); ++i) {
    differing += SameDecision(da[i], db[i]) ? 0 : 1;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, PartitionBlocksExactlyConfiguredPairs) {
  FaultPlan plan;
  PartitionWindow w;
  w.group_a = {0, 1};
  w.group_b = {2};
  w.start = Millis(5);
  w.end = Millis(10);
  plan.partitions.push_back(w);
  FaultInjector inj(plan);

  // Cross-group pairs, both directions, inside the window.
  EXPECT_TRUE(inj.Partitioned(0, 2, Millis(7)));
  EXPECT_TRUE(inj.Partitioned(2, 1, Millis(7)));
  // Intra-group and uninvolved pairs are never blocked.
  EXPECT_FALSE(inj.Partitioned(0, 1, Millis(7)));
  EXPECT_FALSE(inj.Partitioned(2, 3, Millis(7)));
  EXPECT_FALSE(inj.Partitioned(3, 0, Millis(7)));
  // Window is [start, end).
  EXPECT_FALSE(inj.Partitioned(0, 2, Millis(4)));
  EXPECT_TRUE(inj.Partitioned(0, 2, Millis(5)));
  EXPECT_FALSE(inj.Partitioned(0, 2, Millis(10)));

  // OnTransmit turns a partitioned frame into a deterministic drop.
  const FaultDecision d = inj.OnTransmit(0, 2, MsgType::kPageRequest, Millis(7), false);
  EXPECT_TRUE(d.drop);
  EXPECT_EQ(inj.counters().partition_dropped, 1);
  const FaultDecision ok = inj.OnTransmit(0, 1, MsgType::kPageRequest, Millis(7), false);
  EXPECT_FALSE(ok.drop);
}

TEST(FaultInjector, EmptyGroupBMeansEveryoneElse) {
  FaultPlan plan;
  PartitionWindow w;
  w.group_a = {0};
  plan.partitions.push_back(w);  // All of virtual time.
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.Partitioned(0, 3, Millis(1)));
  EXPECT_TRUE(inj.Partitioned(2, 0, Millis(1)));
  EXPECT_FALSE(inj.Partitioned(1, 2, Millis(1)));
}

TEST(ParsePartitionSpec, FullGrammar) {
  PartitionWindow w;
  std::string err;
  ASSERT_TRUE(ParsePartitionSpec("0,1-2,3@5..10", &w, &err)) << err;
  EXPECT_EQ(w.group_a, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(w.group_b, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(w.start, Millis(5));
  EXPECT_EQ(w.end, Millis(10));
}

TEST(ParsePartitionSpec, EmptyGroupBAndFractionalTimes) {
  PartitionWindow w;
  std::string err;
  ASSERT_TRUE(ParsePartitionSpec("0-@0..2.5", &w, &err)) << err;
  EXPECT_EQ(w.group_a, (std::vector<NodeId>{0}));
  EXPECT_TRUE(w.group_b.empty());
  EXPECT_EQ(w.start, 0);
  EXPECT_EQ(w.end, static_cast<SimTime>(2.5 * 1e6));
}

TEST(ParsePartitionSpec, RejectsMalformedSpecs) {
  PartitionWindow w;
  std::string err;
  EXPECT_FALSE(ParsePartitionSpec("0-1", &w, &err));           // No '@'.
  EXPECT_FALSE(ParsePartitionSpec("0,1@5..10", &w, &err));     // No '-'.
  EXPECT_FALSE(ParsePartitionSpec("0-1@5", &w, &err));         // No '..'.
  EXPECT_FALSE(ParsePartitionSpec("-1@5..10", &w, &err));      // Empty group_a.
  EXPECT_FALSE(ParsePartitionSpec("0,x-1@5..10", &w, &err));   // Bad node id.
  EXPECT_FALSE(ParsePartitionSpec("0-1@10..5", &w, &err));     // End before start.
}

// The issue's regression gate: a faulty run is a deterministic function of the
// configuration. SOR on 8 nodes under 1% drop, run twice with the same seed,
// must verify both times and agree on every observable — finish time and the
// full traffic ledger (which fingerprints the message history).
RunReport RunSorUnderDrop() {
  auto app = MakeApp("sor", AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.shared_bytes = 16ll << 20;
  cfg.fault.drop_prob = 0.01;
  cfg.fault.seed = 7;
  cfg.reliability.enabled = true;
  cfg.reliability.retry_timeout = Millis(1);
  AppRunResult result = RunApp(*app, cfg);
  EXPECT_TRUE(result.verified) << result.why;
  return result.report;
}

TEST(FaultEndToEnd, SorUnderDropIsDeterministic) {
  const RunReport a = RunSorUnderDrop();
  const RunReport b = RunSorUnderDrop();
  EXPECT_EQ(a.total_time, b.total_time);

  const NodeReport ta = a.Totals();
  const NodeReport tb = b.Totals();
  EXPECT_EQ(ta.traffic.msgs_sent, tb.traffic.msgs_sent);
  EXPECT_EQ(ta.traffic.msgs_received, tb.traffic.msgs_received);
  EXPECT_EQ(ta.traffic.update_bytes_sent, tb.traffic.update_bytes_sent);
  EXPECT_EQ(ta.traffic.protocol_bytes_sent, tb.traffic.protocol_bytes_sent);
  EXPECT_EQ(ta.traffic.msgs_retransmitted, tb.traffic.msgs_retransmitted);
  EXPECT_EQ(ta.traffic.msgs_dropped_in_net, tb.traffic.msgs_dropped_in_net);
  EXPECT_EQ(ta.traffic.msgs_duplicated_dropped, tb.traffic.msgs_duplicated_dropped);
  EXPECT_EQ(ta.traffic.acks_sent, tb.traffic.acks_sent);

  // The plan actually bit: frames were lost and recovered.
  EXPECT_GT(ta.traffic.msgs_dropped_in_net, 0);
  EXPECT_GT(ta.traffic.msgs_retransmitted, 0);
  EXPECT_GT(ta.traffic.acks_sent, 0);

  // Per-node finish times agree too, not just the max.
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n].finish_time, b.nodes[n].finish_time) << "node " << n;
  }
}

// One rule decides reliable delivery for every caller of System: a fault plan
// alone turns it on (SimConfig::Reliable()). Without it a dropped frame would
// deadlock the run and an injected duplicate would reach a protocol handler.
TEST(FaultEndToEnd, FaultPlanAloneTurnsOnReliableDelivery) {
  for (const bool dup : {false, true}) {
    SCOPED_TRACE(dup ? "dup_prob" : "drop_prob");
    SimConfig cfg;
    cfg.nodes = 8;
    cfg.shared_bytes = 16ll << 20;
    (dup ? cfg.fault.dup_prob : cfg.fault.drop_prob) = 0.02;
    ASSERT_FALSE(cfg.reliability.enabled);
    EXPECT_TRUE(cfg.Reliable());

    auto app = MakeApp("sor", AppScale::kTiny);
    System sys(cfg);
    EXPECT_TRUE(sys.config().reliability.enabled);
    app->Setup(sys);
    sys.Run(app->Program());
    std::string why;
    EXPECT_TRUE(app->Verify(sys, &why)) << why;
    const TrafficStats t = sys.report().Totals().traffic;
    EXPECT_GT(t.acks_sent, 0);
    EXPECT_GT(dup ? t.msgs_duplicated_dropped : t.msgs_retransmitted, 0);
  }
}

}  // namespace
}  // namespace hlrc
