// Causal span tracing (src/tracing): DAG well-formedness across the paper's
// applications and protocol families, exact critical-path attribution
// (categories partition each root's wait), a hand-computed attribution
// fixture, JSON round-tripping, and the retransmit regression — a dropped
// then retransmitted page request must stay one connected fault chain.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/common/rng.h"
#include "src/metrics/json.h"
#include "src/metrics/json_writer.h"
#include "src/net/fault_hook.h"
#include "src/svm/system.h"
#include "src/tracing/critpath.h"
#include "src/tracing/span.h"
#include "src/tracing/span_check.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

// Categories must sum exactly to each root's duration — attribution is a
// partition of the root's window, not a sample (simulated time is integral,
// so the equality is exact, no rounding slop).
void ExpectExactPartition(const CritPathSummary& sum, const std::string& where) {
  SimTime roots_wait = 0;
  for (const RootAttribution& r : sum.roots) {
    SimTime cats = 0;
    for (size_t c = 0; c < kCritCatCount; ++c) {
      cats += r.by_cat[c];
    }
    ASSERT_EQ(cats, r.t1 - r.t0)
        << where << ": root span " << r.id << " (" << SpanKindName(r.kind)
        << ") categories do not partition its wait";
    roots_wait += r.t1 - r.t0;
  }
  EXPECT_EQ(roots_wait, sum.total_wait) << where;
  SimTime grand = 0;
  for (size_t c = 0; c < kCritCatCount; ++c) {
    grand += sum.total[c];
  }
  EXPECT_EQ(grand, sum.total_wait) << where;
}

TEST(SpanDag, WellFormedAcrossPaperAppsAndProtocols) {
  for (const std::string& app_name : AppNames()) {
    for (ProtocolKind kind : testing::AllProtocols()) {
      const std::string where = app_name + "/" + ProtocolName(kind);
      std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
      SimConfig cfg;
      cfg.nodes = 8;
      cfg.protocol.kind = kind;
      System sys(cfg);
      SpanTracer* spans = sys.EnableSpans(1 << 20);
      app->Setup(sys);
      sys.Run(app->Program());
      std::string why;
      ASSERT_TRUE(app->Verify(sys, &why)) << where << ": " << why;

      ASSERT_FALSE(spans->spans().empty()) << where;
      EXPECT_EQ(spans->dropped(), 0) << where << ": raise the test capacity";
      std::string err;
      EXPECT_TRUE(CheckSpanDag(spans->spans(), &err)) << where << ": " << err;

      // Every root carries a vector-clock snapshot of its node.
      bool saw_root = false;
      for (const Span& s : spans->spans()) {
        if (RootKindIndex(s.kind) >= 0) {
          saw_root = true;
          EXPECT_EQ(s.vt.size(), 8u) << where << ": root span " << s.id;
          break;
        }
      }
      EXPECT_TRUE(saw_root) << where;

      // Each blocking operation is one root span: per node, barrier roots
      // equal the barriers entered and lock roots the acquires that needed
      // messages.
      std::vector<int64_t> barrier_roots(8, 0);
      std::vector<int64_t> lock_roots(8, 0);
      for (const Span& s : spans->spans()) {
        if (s.kind == SpanKind::kBarrier) {
          ++barrier_roots[static_cast<size_t>(s.node)];
        } else if (s.kind == SpanKind::kLock) {
          ++lock_roots[static_cast<size_t>(s.node)];
        }
      }
      for (size_t n = 0; n < 8; ++n) {
        const ProtoStats& p = sys.report().nodes[n].proto;
        EXPECT_EQ(barrier_roots[n], p.barriers) << where << ": node " << n;
        EXPECT_EQ(lock_roots[n], p.remote_acquires) << where << ": node " << n;
      }

      ExpectExactPartition(AttributeCriticalPaths(spans->spans()), where);
    }
  }
}

// Hand-computed fixture: a remote page fault whose request queues, rides the
// wire (with one retransmit stretch inside), and is served at the home.
//
//   fault #0 (node 0, page 7)   [0 ......................... 100]
//     queue #1                     [10 .. 20]
//     wire #2                             [20 ............ 50]
//       retransmit #3                        [30 .. 40]
//     service #4 (node 1)                                 [50 ... 80]
//
// Deepest-active wins each segment; uncovered stretches are bookkeeping:
//   [0,10) bookkeeping  [10,20) queueing  [20,30) wire  [30,40) retransmit
//   [40,50) wire        [50,80) home service             [80,100) bookkeeping
TEST(CritPath, HandComputedFaultAttribution) {
  std::vector<Span> spans;
  auto add = [&spans](SpanId id, SpanKind kind, NodeId node, SimTime t0, SimTime t1,
                      std::vector<SpanId> links, int64_t a0 = 0) {
    Span s;
    s.id = id;
    s.kind = kind;
    s.node = node;
    s.t0 = t0;
    s.t1 = t1;
    s.links = std::move(links);
    s.a0 = a0;
    spans.push_back(std::move(s));
  };
  add(0, SpanKind::kFault, 0, 0, 100, {}, /*a0=*/7);
  add(1, SpanKind::kQueue, 0, 10, 20, {0});
  add(2, SpanKind::kWire, 0, 20, 50, {1});
  add(3, SpanKind::kRetransmit, 0, 30, 40, {2});
  add(4, SpanKind::kService, 1, 50, 80, {2});

  std::string err;
  ASSERT_TRUE(CheckSpanDag(spans, &err)) << err;

  const CritPathSummary sum = AttributeCriticalPaths(spans);
  ASSERT_EQ(sum.roots.size(), 1u);
  const RootAttribution& r = sum.roots[0];
  EXPECT_EQ(r.id, 0);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kBookkeeping)], 30);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kQueueing)], 10);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kWire)], 20);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kRetransmit)], 10);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kHomeService)], 30);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kDiffCreate)], 0);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kDiffApply)], 0);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kCompute)], 0);
  ExpectExactPartition(sum, "fixture");

  // Page rollup: the fault's full wait lands on page 7.
  ASSERT_EQ(sum.page_wait.count(7), 1u);
  EXPECT_EQ(sum.page_wait.at(7), 100);
  EXPECT_EQ(sum.by_page.at(7)[static_cast<size_t>(CritCat::kHomeService)], 30);
}

// A second root's subtree must attribute to itself, never leak into a root
// it is causally linked from; critical sections count as compute.
TEST(CritPath, RootsAttributeTheirOwnSubtrees) {
  std::vector<Span> spans;
  auto add = [&spans](SpanId id, SpanKind kind, NodeId node, SimTime t0, SimTime t1,
                      std::vector<SpanId> links) {
    Span s;
    s.id = id;
    s.kind = kind;
    s.node = node;
    s.t0 = t0;
    s.t1 = t1;
    s.links = std::move(links);
    spans.push_back(std::move(s));
  };
  add(0, SpanKind::kFault, 0, 0, 100, {});
  add(1, SpanKind::kWire, 0, 20, 50, {0});
  // A lock acquire causally downstream of the fault: still its own root.
  add(2, SpanKind::kLock, 1, 100, 160, {1});
  add(3, SpanKind::kLockHold, 1, 110, 130, {2});

  const CritPathSummary sum = AttributeCriticalPaths(spans);
  ASSERT_EQ(sum.roots.size(), 2u);
  EXPECT_EQ(sum.by_kind[0][static_cast<size_t>(CritCat::kWire)], 30);
  EXPECT_EQ(sum.by_kind[0][static_cast<size_t>(CritCat::kBookkeeping)], 70);
  EXPECT_EQ(sum.by_kind[1][static_cast<size_t>(CritCat::kCompute)], 20);
  EXPECT_EQ(sum.by_kind[1][static_cast<size_t>(CritCat::kBookkeeping)], 40);
  ExpectExactPartition(sum, "two-root fixture");
}

// Drops page requests between two nodes with probability 0.4 and leaves
// every other frame alone.
class PageRequestDropper : public FaultHook {
 public:
  FaultDecision OnTransmit(NodeId src, NodeId dst, MsgType type, SimTime, bool) override {
    FaultDecision d;
    d.drop = type == MsgType::kPageRequest && src != dst && rng_.NextBool(0.4);
    return d;
  }

 private:
  Rng rng_{7};
};

// Regression (reliable delivery × tracing): a dropped page request recovered
// by the ReliableChannel must still read as ONE connected fault chain — the
// retransmit stretch shows up as a kRetransmit span on the fault's critical
// path instead of severing the DAG.
TEST(SpanDag, RetransmittedPageRequestStaysConnected) {
  SimConfig cfg = testing::SmallConfig(ProtocolKind::kHlrc, 4);
  cfg.reliability.enabled = true;
  PageRequestDropper dropper;
  System sys(cfg);
  sys.network().SetFaultHook(&dropper);
  SpanTracer* spans = sys.EnableSpans();
  const GlobalAddr addr = sys.space().AllocPageAligned(8 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < 4; ++r) {
      co_await ctx.Lock(1);
      co_await ctx.Write(addr, 1024);
      *ctx.Ptr<int64_t>(addr) += 1;
      co_await ctx.Unlock(1);
      co_await ctx.Barrier(r);
      co_await ctx.Read(addr, 8);
    }
  });

  ASSERT_GT(sys.network().TotalStats().msgs_retransmitted, 0)
      << "fault plan produced no retransmissions; regression is vacuous";
  std::string err;
  EXPECT_TRUE(CheckSpanDag(spans->spans(), &err)) << err;

  int64_t retransmit_spans = 0;
  for (const Span& s : spans->spans()) {
    if (s.kind == SpanKind::kRetransmit) {
      ++retransmit_spans;
      ASSERT_FALSE(s.links.empty()) << "retransmit span " << s.id << " has no cause";
    }
  }
  EXPECT_GT(retransmit_spans, 0);

  // The retry wait is attributed — some blocking root pays for it.
  const CritPathSummary sum = AttributeCriticalPaths(spans->spans());
  EXPECT_GT(sum.total[static_cast<size_t>(CritCat::kRetransmit)], 0);
  ExpectExactPartition(sum, "retransmit run");
}

TEST(SpanJson, RoundTripsThroughRunSummarySection) {
  SimConfig cfg = testing::SmallConfig(ProtocolKind::kHlrc, 4);
  System sys(cfg);
  SpanTracer* spans = sys.EnableSpans();
  const GlobalAddr addr = sys.space().AllocPageAligned(8 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    co_await ctx.Lock(1);
    co_await ctx.Write(addr, 512);
    *ctx.Ptr<int64_t>(addr) += 1;
    co_await ctx.Unlock(1);
    co_await ctx.Barrier(0);
  });
  ASSERT_FALSE(spans->spans().empty());

  JsonWriter w;
  w.BeginObject();
  WriteSpansJson(&w, *spans);
  w.EndObject();

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(ParseJson(w.str(), &doc, &err)) << err;
  std::vector<Span> parsed;
  int64_t dropped = -1;
  ASSERT_TRUE(ParseSpans(doc, &parsed, &dropped, &err)) << err;
  EXPECT_EQ(dropped, spans->dropped());
  ASSERT_EQ(parsed.size(), spans->spans().size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    const Span& a = spans->spans()[i];
    const Span& b = parsed[i];
    ASSERT_EQ(a.id, b.id);
    EXPECT_EQ(a.kind, b.kind) << "span " << a.id;
    EXPECT_EQ(a.node, b.node) << "span " << a.id;
    EXPECT_EQ(a.t0, b.t0) << "span " << a.id;
    EXPECT_EQ(a.t1, b.t1) << "span " << a.id;
    EXPECT_EQ(a.parent, b.parent) << "span " << a.id;
    EXPECT_EQ(a.links, b.links) << "span " << a.id;
    EXPECT_EQ(a.a0, b.a0) << "span " << a.id;
    EXPECT_EQ(a.a1, b.a1) << "span " << a.id;
    EXPECT_EQ(a.vt, b.vt) << "span " << a.id;
  }
  EXPECT_TRUE(CheckSpanDag(parsed, &err)) << err;
}

TEST(SpanJson, MissingSectionExplainsHowToGetOne) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(ParseJson("{\"schema\":\"x\"}", &doc, &err)) << err;
  std::vector<Span> parsed;
  EXPECT_FALSE(ParseSpans(doc, &parsed, nullptr, &err));
  EXPECT_NE(err.find("--metrics-out"), std::string::npos) << err;
}

TEST(SpanCheck, RejectsMalformedDags) {
  auto make = [](SpanKind kind, SimTime t0, SimTime t1, SpanId id) {
    Span s;
    s.id = id;
    s.kind = kind;
    s.node = 0;
    s.t0 = t0;
    s.t1 = t1;
    return s;
  };
  std::string err;

  // Interior span with no path from a root.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0),
                               make(SpanKind::kWire, 2, 5, 1)};
    EXPECT_FALSE(CheckSpanDag(spans, &err));
  }
  // Parent interval does not contain the child.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0),
                               make(SpanKind::kWire, 5, 20, 1)};
    spans[1].parent = 0;
    EXPECT_FALSE(CheckSpanDag(spans, &err));
  }
  // Link to a nonexistent span.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0)};
    spans[0].links.push_back(99);
    EXPECT_FALSE(CheckSpanDag(spans, &err));
  }
  // Inverted interval.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 10, 0, 0)};
    EXPECT_FALSE(CheckSpanDag(spans, &err));
  }
}

}  // namespace
}  // namespace hlrc
