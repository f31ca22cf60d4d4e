#include "src/net/reliable_channel.h"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/net/network.h"
#include "src/sim/engine.h"

namespace hlrc {
namespace {

// Replays a scripted decision per physical transmission — data frames,
// retransmissions and acks alike, in Network::Transmit order. All-clear once
// the script runs dry.
class ScriptedHook : public FaultHook {
 public:
  void Push(FaultDecision d) { script_.push_back(d); }

  FaultDecision OnTransmit(NodeId, NodeId, MsgType, SimTime, bool) override {
    if (script_.empty()) {
      return {};
    }
    FaultDecision d = script_.front();
    script_.pop_front();
    return d;
  }

 private:
  std::deque<FaultDecision> script_;
};

// Drops every frame, forever; only the retry budget stops the sender.
class BlackHoleHook : public FaultHook {
 public:
  FaultDecision OnTransmit(NodeId, NodeId, MsgType, SimTime, bool) override {
    FaultDecision d;
    d.drop = true;
    return d;
  }
};

Message MakeMsg(NodeId src, NodeId dst, MsgType type = MsgType::kPageRequest,
                int64_t proto = 16) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = type;
  m.protocol_bytes = proto;
  return m;
}

// Builds a 2-node network with reliable delivery and a scripted hook; node 1
// records the types it receives in delivery order.
struct Rig {
  Rig(SimTime retry_timeout, int max_retries, FaultHook* fault_hook)
      : Rig(MakeConfig(retry_timeout, max_retries), fault_hook) {}

  Rig(ReliabilityConfig rc, FaultHook* fault_hook, NetworkConfig nc = {})
      : net(&engine, 2, nc) {
    net.EnableReliableDelivery(rc);
    net.SetFaultHook(fault_hook);
    net.SetHandler(0, [this](Message m) { received0.push_back(m.type); });
    net.SetHandler(1, [this](Message m) { received1.push_back(m.type); });
  }

  static ReliabilityConfig MakeConfig(SimTime retry_timeout, int max_retries) {
    ReliabilityConfig rc;
    rc.enabled = true;
    rc.retry_timeout = retry_timeout;
    rc.max_retries = max_retries;
    return rc;
  }

  Engine engine;
  Network net;
  std::vector<MsgType> received0;
  std::vector<MsgType> received1;
};

TEST(ReliableChannel, RetransmitRecoversDroppedFrame) {
  ScriptedHook hook;
  FaultDecision drop;
  drop.drop = true;
  hook.Push(drop);  // First physical transmission of the data frame is lost.
  Rig rig(Micros(500), 12, &hook);

  rig.net.Send(MakeMsg(0, 1));
  rig.engine.Run();

  ASSERT_EQ(rig.received1.size(), 1u);
  EXPECT_EQ(rig.received1[0], MsgType::kPageRequest);
  EXPECT_EQ(rig.net.NodeStats(0).msgs_retransmitted, 1);
  EXPECT_EQ(rig.net.NodeStats(0).msgs_dropped_in_net, 1);
  EXPECT_EQ(rig.net.NodeStats(1).acks_sent, 1);
  EXPECT_EQ(rig.net.reliable_channel()->UnackedCount(), 0);
}

TEST(ReliableChannel, ReceiverDropsInjectedDuplicate) {
  ScriptedHook hook;
  FaultDecision dup;
  dup.duplicate = true;
  hook.Push(dup);  // The data frame is delivered twice.
  Rig rig(Micros(500), 12, &hook);

  rig.net.Send(MakeMsg(0, 1));
  rig.engine.Run();

  ASSERT_EQ(rig.received1.size(), 1u);  // Handler ran exactly once.
  EXPECT_EQ(rig.net.NodeStats(1).msgs_duplicated_dropped, 1);
  // Every physical data arrival is (re-)acked, duplicates included.
  EXPECT_EQ(rig.net.NodeStats(1).acks_sent, 2);
  EXPECT_EQ(rig.net.NodeStats(0).msgs_retransmitted, 0);
}

TEST(ReliableChannel, LostAckTriggersRetransmitAndDedup) {
  ScriptedHook hook;
  hook.Push({});  // Data frame arrives fine.
  FaultDecision drop;
  drop.drop = true;
  hook.Push(drop);  // Its ack is lost.
  Rig rig(Micros(500), 12, &hook);

  rig.net.Send(MakeMsg(0, 1));
  rig.engine.Run();

  ASSERT_EQ(rig.received1.size(), 1u);  // Delivered exactly once to the protocol.
  EXPECT_EQ(rig.net.NodeStats(0).msgs_retransmitted, 1);
  EXPECT_EQ(rig.net.NodeStats(1).msgs_duplicated_dropped, 1);
  EXPECT_EQ(rig.net.NodeStats(1).acks_sent, 2);
  EXPECT_EQ(rig.net.reliable_channel()->UnackedCount(), 0);
}

TEST(ReliableChannel, DelayedFrameIsHeldForInOrderDelivery) {
  ScriptedHook hook;
  FaultDecision late;
  late.extra_delay = Millis(5);  // First frame physically arrives after the second.
  hook.Push(late);
  // Long retry timeout so the delay does not also trigger a (harmless but
  // counter-visible) spurious retransmit.
  Rig rig(Millis(20), 12, &hook);

  rig.net.Send(MakeMsg(0, 1, MsgType::kPageRequest));
  rig.net.Send(MakeMsg(0, 1, MsgType::kPageReply));
  rig.engine.Run();

  // FIFO per (src, dst) pair is restored despite the physical reordering.
  ASSERT_EQ(rig.received1.size(), 2u);
  EXPECT_EQ(rig.received1[0], MsgType::kPageRequest);
  EXPECT_EQ(rig.received1[1], MsgType::kPageReply);
  EXPECT_EQ(rig.net.NodeStats(0).msgs_retransmitted, 0);
  EXPECT_EQ(rig.net.NodeStats(1).msgs_duplicated_dropped, 0);
}

TEST(ReliableChannel, CleanFabricAddsOnlyAcks) {
  ScriptedHook hook;  // Empty script: no faults at all.
  Rig rig(Micros(500), 12, &hook);

  rig.net.Send(MakeMsg(0, 1));
  rig.net.Send(MakeMsg(1, 0, MsgType::kPageReply));
  rig.engine.Run();

  EXPECT_EQ(rig.received1.size(), 1u);
  EXPECT_EQ(rig.received0.size(), 1u);
  EXPECT_EQ(rig.net.TotalStats().msgs_retransmitted, 0);
  EXPECT_EQ(rig.net.TotalStats().msgs_duplicated_dropped, 0);
  EXPECT_EQ(rig.net.TotalStats().acks_sent, 2);
}

TEST(ReliableChannel, TransientPartitionHealsWithinRetryBudget) {
  // A partition window shorter than the retry budget: frames sent into the
  // window are lost, but a later retransmission lands and delivery resumes.
  FaultPlan plan;
  PartitionWindow w;
  w.group_a = {0};
  w.group_b = {1};
  w.start = 0;
  w.end = Millis(2);
  plan.partitions.push_back(w);
  FaultInjector injector(plan);
  Rig rig(Micros(500), /*max_retries=*/12, &injector);

  rig.net.Send(MakeMsg(0, 1));
  rig.engine.Run();

  ASSERT_EQ(rig.received1.size(), 1u);
  EXPECT_GE(rig.net.NodeStats(0).msgs_retransmitted, 1);
  EXPECT_GE(injector.counters().partition_dropped, 1);
  EXPECT_EQ(rig.net.reliable_channel()->UnackedCount(), 0);
}

TEST(ReliableChannel, PiggybackAckRidesReverseDataFrame) {
  // Request/reply exchange with piggybacking on: the reply leaves well within
  // the ack deadline, so the request's ack rides it instead of costing a
  // standalone frame. Only the final reply (no reverse traffic after it) needs
  // a deadline-flushed standalone ack.
  ScriptedHook hook;  // Clean fabric.
  Rig rig(Rig::MakeConfig(Millis(10), 12), &hook, {.coalesce = true});
  rig.net.SetHandler(1, [&rig](Message m) {
    rig.received1.push_back(m.type);
    rig.net.Send(MakeMsg(1, 0, MsgType::kPageReply));
  });

  rig.net.Send(MakeMsg(0, 1));
  rig.engine.Run();

  ASSERT_EQ(rig.received1.size(), 1u);
  ASSERT_EQ(rig.received0.size(), 1u);
  EXPECT_EQ(rig.net.NodeStats(1).acks_piggybacked, 1);
  EXPECT_EQ(rig.net.NodeStats(1).acks_sent, 0);  // Its ack rode the reply.
  EXPECT_EQ(rig.net.NodeStats(0).acks_sent, 1);  // Deadline flush for the reply.
  EXPECT_EQ(rig.net.TotalStats().msgs_retransmitted, 0);
  EXPECT_EQ(rig.net.reliable_channel()->UnackedCount(), 0);
}

TEST(ReliableChannel, PiggybackDeadlineCombinesStandaloneAcks) {
  // No reverse traffic at all: the deadline fires and flushes every owed seq
  // in ONE multi-seq standalone ack frame, not one frame per data frame. The
  // two data frames leave in separate ticks, both before the ack deadline:
  // same-tick sends would be bundled into one frame, owing a single seq.
  ScriptedHook hook;
  Rig rig(Rig::MakeConfig(Millis(10), 12), &hook, {.coalesce = true});

  rig.net.Send(MakeMsg(0, 1));
  rig.engine.Schedule(Micros(100),
                      [&rig] { rig.net.Send(MakeMsg(0, 1, MsgType::kDiffRequest)); });
  rig.engine.Run();

  ASSERT_EQ(rig.received1.size(), 2u);
  EXPECT_EQ(rig.net.NodeStats(0).msgs_sent, 2);  // Two data frames, no bundle.
  EXPECT_EQ(rig.net.NodeStats(0).frames_coalesced, 0);
  EXPECT_EQ(rig.net.NodeStats(1).acks_sent, 1);  // Two seqs, one ack frame.
  EXPECT_EQ(rig.net.NodeStats(1).acks_piggybacked, 0);
  EXPECT_EQ(rig.net.TotalStats().msgs_retransmitted, 0);
  EXPECT_EQ(rig.net.reliable_channel()->UnackedCount(), 0);
}

TEST(ReliableChannel, PiggybackedAckSurvivesRetransmissionOfItsCarrier) {
  // The request's ack is attached to the reply frame; the reply's first
  // physical copy is lost. Losing the carrier loses the ack with it, so the
  // requester times out and retransmits the request (which the receiver
  // dup-drops and re-acks). The retransmitted reply must still carry the
  // original piggybacked ack (the seqs stay attached to the frame), it must
  // be counted once — not once per physical copy — and the late duplicate
  // ack copies must retire nothing twice.
  ScriptedHook hook;
  hook.Push({});  // Request 0->1 arrives fine.
  FaultDecision drop;
  drop.drop = true;
  hook.Push(drop);  // Reply 1->0 (carrying the piggybacked ack) is lost.
  Rig rig(Rig::MakeConfig(Millis(5), 12), &hook, {.coalesce = true});
  rig.net.SetHandler(1, [&rig](Message m) {
    rig.received1.push_back(m.type);
    rig.net.Send(MakeMsg(1, 0, MsgType::kPageReply));
  });

  rig.net.Send(MakeMsg(0, 1));
  rig.engine.Run();

  ASSERT_EQ(rig.received0.size(), 1u);  // Reply delivered exactly once.
  ASSERT_EQ(rig.received1.size(), 1u);  // Request too.
  EXPECT_EQ(rig.net.NodeStats(1).msgs_retransmitted, 1);  // The reply.
  EXPECT_EQ(rig.net.NodeStats(0).msgs_retransmitted, 1);  // The orphaned request.
  EXPECT_EQ(rig.net.NodeStats(1).msgs_duplicated_dropped, 1);
  EXPECT_EQ(rig.net.NodeStats(1).acks_piggybacked, 1);  // Counted once, not per copy.
  EXPECT_EQ(rig.net.reliable_channel()->UnackedCount(), 0);
}

TEST(ReliableChannel, DuplicateAckAfterRetransmitIsIdempotent) {
  // Regression: the first ack is delayed past the retry timeout, so the
  // sender retransmits and the receiver re-acks. Both acks eventually arrive
  // for the same seq; the second must be a pure no-op — it must not
  // double-decrement the retransmit backlog, record a second (negative)
  // retransmit-latency sample, or touch an already-erased entry (this test
  // runs under ASan/UBSan in the sanitizer suite).
  // The delayed first ack also holds the later re-acks behind it (the link
  // preserves physical FIFO), so several retransmissions pile up and every
  // one of their acks arrives after the entry was already retired.
  ScriptedHook hook;
  hook.Push({});  // Data frame arrives fine.
  FaultDecision late;
  late.extra_delay = Millis(5);
  hook.Push(late);  // Its ack is delayed past the 500us retry timeout.
  Rig rig(Micros(500), 12, &hook);

  rig.net.Send(MakeMsg(0, 1));
  rig.engine.Run();

  ASSERT_EQ(rig.received1.size(), 1u);  // Delivered exactly once.
  const int64_t retx = rig.net.NodeStats(0).msgs_retransmitted;
  EXPECT_GE(retx, 1);
  // Each physical data arrival is re-acked and then dup-dropped; each ack
  // beyond the first finds the seq already retired and must change nothing.
  EXPECT_EQ(rig.net.NodeStats(1).msgs_duplicated_dropped, retx);
  EXPECT_EQ(rig.net.NodeStats(1).acks_sent, retx + 1);
  EXPECT_EQ(rig.net.reliable_channel()->UnackedCount(), 0);
}

TEST(ReliableChannelDeathTest, RetryBudgetExhaustedDuringPartitionIsFatalNotAHang) {
  // A partition that outlives the whole retry budget (4 sends x 100us
  // timeouts with 2x backoff end well before the window does) must surface
  // as a fatal diagnostic, not as a silent hang of the blocked protocol.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        Network net(&engine, 2, NetworkConfig{});
        ReliabilityConfig rc;
        rc.enabled = true;
        rc.retry_timeout = Micros(100);
        rc.max_retries = 3;
        net.EnableReliableDelivery(rc);
        FaultPlan plan;
        PartitionWindow w;
        w.group_a = {0};
        w.group_b = {1};
        w.start = 0;
        w.end = Seconds(1);
        plan.partitions.push_back(w);
        FaultInjector injector(plan);
        net.SetFaultHook(&injector);
        net.SetHandler(0, [](Message) {});
        net.SetHandler(1, [](Message) {});
        net.Send(MakeMsg(0, 1));
        engine.Run();
      },
      "retry budget exhausted");
}

TEST(ReliableChannelDeathTest, RetryBudgetExhaustionIsFatalNotAHang) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        Network net(&engine, 2, NetworkConfig{});
        ReliabilityConfig rc;
        rc.enabled = true;
        rc.retry_timeout = Micros(100);
        rc.max_retries = 3;
        net.EnableReliableDelivery(rc);
        BlackHoleHook black_hole;
        net.SetFaultHook(&black_hole);
        net.SetHandler(0, [](Message) {});
        net.SetHandler(1, [](Message) {});
        net.Send(MakeMsg(0, 1));
        engine.Run();
      },
      "retry budget exhausted");
}

}  // namespace
}  // namespace hlrc
