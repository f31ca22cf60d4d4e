// End-to-end tests for System::EnableMetrics and the run-summary JSON
// exporter: a small 4-node program with faults, locks and barriers must
// produce a schema-valid document with populated histograms, time-series
// samples and a hot-page table — and enabling metrics must not change what
// the simulation computes. The file the exporter streams must equal the
// in-memory document, and a path it cannot write must be an error.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "src/metrics/json.h"
#include "src/metrics/json_writer.h"
#include "src/metrics/metrics.h"
#include "src/metrics/run_summary_schema.h"
#include "src/svm/run_summary.h"
#include "src/svm/system.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

// A workload that exercises every instrumented path: page faults and fetches
// (data waits), lock handoffs (lock waits + diffs), and barriers.
Task<void> Workload(NodeContext& ctx, GlobalAddr addr) {
  for (int r = 0; r < 4; ++r) {
    co_await ctx.Lock(1);
    co_await ctx.Write(addr, 2048);
    *ctx.Ptr<int64_t>(addr) += 1;
    co_await ctx.Unlock(1);
    co_await ctx.Barrier(0);
    co_await ctx.Read(addr + 4096, 1024);
  }
}

struct RunResult {
  std::string json;
  RunReport report;
};

RunResult RunWithMetrics(ProtocolKind kind, SimTime sample_interval) {
  SimConfig cfg = testing::SmallConfig(kind, 4, /*shared_bytes=*/1 << 20,
                                       /*page_size=*/1024);
  System sys(cfg);
  sys.EnableMetrics(sample_interval);
  const GlobalAddr addr = sys.space().AllocPageAligned(16 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> { return Workload(ctx, addr); });
  RunSummaryMeta meta;
  meta.app = "test-workload";
  meta.verified = true;
  return {RunSummaryJson(sys, meta), sys.report()};
}

RunReport RunWithoutMetrics(ProtocolKind kind) {
  SimConfig cfg = testing::SmallConfig(kind, 4, /*shared_bytes=*/1 << 20,
                                       /*page_size=*/1024);
  System sys(cfg);
  const GlobalAddr addr = sys.space().AllocPageAligned(16 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> { return Workload(ctx, addr); });
  return sys.report();
}

TEST(RunSummary, ValidatesAgainstSchema) {
  for (ProtocolKind kind : testing::PaperProtocols()) {
    const RunResult r = RunWithMetrics(kind, Micros(100));
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(ParseJson(r.json, &doc, &err)) << ProtocolName(kind) << ": " << err;
    EXPECT_TRUE(ValidateRunSummary(doc, &err)) << ProtocolName(kind) << ": " << err;
    EXPECT_EQ(doc.GetString("schema"), kRunSummarySchemaName);
    EXPECT_EQ(doc.GetInt("version"), kRunSummarySchemaVersion);
  }
}

TEST(RunSummary, HistogramsTimeseriesAndHotPagesArePopulated) {
  const RunResult r = RunWithMetrics(ProtocolKind::kHlrc, Micros(100));
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(ParseJson(r.json, &doc, &err)) << err;

  // The acceptance bar: at least four distinct latency histograms recorded.
  const JsonValue* histos = doc.Find("histograms");
  ASSERT_NE(histos, nullptr);
  EXPECT_GE(histos->obj.size(), 4u) << r.json;
  for (const auto& [name, h] : histos->obj) {
    EXPECT_GT(h.GetInt("count"), 0) << name;
    const JsonValue* p = h.Find("percentiles");
    ASSERT_NE(p, nullptr) << name;
    EXPECT_LE(p->GetDouble("p50"), p->GetDouble("p999")) << name;
  }
  // This workload waits on data, locks and barriers, so those specific
  // histograms must exist by name.
  EXPECT_NE(histos->Find("proto.data_wait_ns"), nullptr);
  EXPECT_NE(histos->Find("proto.lock_wait_ns"), nullptr);
  EXPECT_NE(histos->Find("proto.barrier_wait_ns"), nullptr);

  const JsonValue* ts = doc.Find("timeseries");
  EXPECT_EQ(ts->GetInt("interval_ns"), Micros(100));
  EXPECT_FALSE(ts->Find("series")->arr.empty());
  EXPECT_GT(ts->Find("samples")->arr.size(), 1u);

  const JsonValue* pages = doc.Find("hot_pages");
  ASSERT_FALSE(pages->arr.empty());
  // The lock-protected page is written by all four nodes.
  const JsonValue& hottest = pages->arr[0];
  EXPECT_GT(hottest.GetInt("score"), 0);
  EXPECT_EQ(pages->arr[0].GetInt("writers"), 4);
}

TEST(RunSummary, MetricsDoNotPerturbSimulation) {
  for (ProtocolKind kind : testing::PaperProtocols()) {
    const RunResult with = RunWithMetrics(kind, Micros(50));
    const RunReport without = RunWithoutMetrics(kind);
    EXPECT_EQ(with.report.total_time, without.total_time) << ProtocolName(kind);
    const NodeReport a = with.report.Totals();
    const NodeReport b = without.Totals();
    EXPECT_EQ(a.traffic.msgs_sent, b.traffic.msgs_sent) << ProtocolName(kind);
    EXPECT_EQ(a.proto.page_fetches, b.proto.page_fetches) << ProtocolName(kind);
    EXPECT_EQ(a.proto.diffs_created, b.proto.diffs_created) << ProtocolName(kind);
    for (size_t n = 0; n < with.report.nodes.size(); ++n) {
      EXPECT_EQ(with.report.nodes[n].finish_time, without.nodes[n].finish_time)
          << ProtocolName(kind) << " node " << n;
    }
  }
}

TEST(RunSummary, DeterministicAcrossRuns) {
  const RunResult a = RunWithMetrics(ProtocolKind::kHlrc, Micros(100));
  const RunResult b = RunWithMetrics(ProtocolKind::kHlrc, Micros(100));
  EXPECT_EQ(a.json, b.json);
}

TEST(RunSummary, HistogramCountsMatchWaitEvents) {
  const RunResult r = RunWithMetrics(ProtocolKind::kHlrc, Micros(100));
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(ParseJson(r.json, &doc, &err)) << err;
  // Every node crosses the barrier 4 times: 16 recorded barrier waits.
  const NodeReport totals = r.report.Totals();
  EXPECT_EQ(doc.Find("histograms")->Find("proto.barrier_wait_ns")->GetInt("count"),
            totals.proto.barriers);
}

TEST(ValidateRunSummary, RejectsTamperedDocuments) {
  const RunResult r = RunWithMetrics(ProtocolKind::kHlrc, Micros(100));
  std::string err;

  struct Mutation {
    const char* what;
    std::string from;
    std::string to;
  };
  const Mutation kMutations[] = {
      {"wrong schema name", "\"hlrc-run-summary\"", "\"other\""},
      {"wrong version", "\"version\":1", "\"version\":99"},
      {"missing totals", "\"totals\"", "\"renamed\""},
      {"negative node count", "\"nodes\":4", "\"nodes\":-4"},
  };
  for (const Mutation& m : kMutations) {
    std::string json = r.json;
    const size_t pos = json.find(m.from);
    ASSERT_NE(pos, std::string::npos) << m.what;
    json.replace(pos, m.from.size(), m.to);
    JsonValue doc;
    ASSERT_TRUE(ParseJson(json, &doc, &err)) << m.what << ": " << err;
    EXPECT_FALSE(ValidateRunSummary(doc, &err)) << m.what;
    EXPECT_FALSE(err.empty()) << m.what;
  }

  // The untampered document still validates (guards the mutations above).
  JsonValue doc;
  ASSERT_TRUE(ParseJson(r.json, &doc, &err));
  EXPECT_TRUE(ValidateRunSummary(doc, &err)) << err;
}

TEST(RunSummary, StreamedFileEqualsInMemoryDocument) {
  System sys(testing::SmallConfig(ProtocolKind::kHlrc, 4, /*shared_bytes=*/1 << 20,
                                  /*page_size=*/1024));
  sys.EnableMetrics(Micros(1));
  sys.EnableSpans();
  const GlobalAddr addr = sys.space().AllocPageAligned(16 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> { return Workload(ctx, addr); });
  RunSummaryMeta meta;
  meta.app = "test-workload";
  const std::string json = RunSummaryJson(sys, meta);
  // Large enough that the file is written in several drains.
  ASSERT_GT(json.size(), 4 * JsonWriter::kFlushBytes);

  const std::string path = ::testing::TempDir() + "/hlrc_run_summary_streamed.json";
  std::string err;
  ASSERT_TRUE(WriteRunSummaryJson(path, sys, meta, &err)) << err;
  std::ifstream in(path, std::ios::binary);
  const std::string written{std::istreambuf_iterator<char>(in), {}};
  std::remove(path.c_str());
  EXPECT_EQ(written, json + "\n");
}

TEST(RunSummary, UnwritablePathIsAnError) {
  System sys(testing::SmallConfig(ProtocolKind::kHlrc, 2));
  sys.EnableMetrics();
  sys.EnableSpans();
  sys.Run([](NodeContext& ctx) -> Task<void> { co_await ctx.Barrier(0); });
  const RunSummaryMeta meta;

  std::string err;
  const std::string missing_dir = ::testing::TempDir() + "/hlrc-no-such-dir/run.json";
  EXPECT_FALSE(WriteRunSummaryJson(missing_dir, sys, meta, &err));
  EXPECT_NE(err.find("cannot open " + missing_dir), std::string::npos) << err;

  // A device that accepts the open but fails the write: the failure must
  // surface from a drain, the flush or the close, not be lost.
  if (access("/dev/full", W_OK) == 0) {
    err.clear();
    EXPECT_FALSE(WriteRunSummaryJson("/dev/full", sys, meta, &err));
    EXPECT_NE(err.find("short write to /dev/full"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace hlrc
