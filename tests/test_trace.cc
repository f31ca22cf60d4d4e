// The execution trace (svmsim --trace): WriteChromeTrace draws a run's span
// slices, causal flow arrows and metric counter tracks into one Chrome
// trace-event file, which must survive a strict parse.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>

#include "src/metrics/json.h"
#include "src/svm/system.h"
#include "src/tracing/span.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  if (f == nullptr) {
    return content;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return content;
}

// Events of a strict-parsed trace file, tallied by phase.
struct TraceCounts {
  int64_t slices = 0;
  int64_t counters = 0;
  int64_t other = 0;
  std::map<int64_t, int> flow_starts;  // Flow id -> "s" events.
  std::map<int64_t, int> flow_ends;    // Flow id -> "f" events.
};

void WriteAndParse(const std::string& path, const System& sys, TraceCounts* counts) {
  std::string err;
  ASSERT_TRUE(WriteChromeTrace(path, *sys.spans(), sys.metrics()->sampler(), &err)) << err;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(ReadWholeFile(path), &doc, &err)) << err;
  std::remove(path.c_str());
  ASSERT_TRUE(doc.IsArray());
  for (const JsonValue& ev : doc.arr) {
    ASSERT_TRUE(ev.IsObject());
    EXPECT_FALSE(ev.GetString("name").empty());
    const std::string ph = ev.GetString("ph");
    if (ph == "X") {
      ++counts->slices;
      const JsonValue* dur = ev.Find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->AsDouble(), 0.0);
    } else if (ph == "s") {
      ++counts->flow_starts[ev.GetInt("id")];
    } else if (ph == "f") {
      ++counts->flow_ends[ev.GetInt("id")];
    } else if (ph == "C") {
      ++counts->counters;
      ASSERT_NE(ev.Find("args"), nullptr);
    } else {
      ++counts->other;
    }
  }
}

TEST(ChromeTrace, SpansFlowsAndCountersStrictParse) {
  SimConfig cfg = testing::SmallConfig(ProtocolKind::kHlrc, 4);
  System sys(cfg);
  const Metrics* metrics = sys.EnableMetrics(Micros(100));
  const SpanTracer* spans = sys.EnableSpans();
  const GlobalAddr addr = sys.space().AllocPageAligned(8 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    co_await ctx.Lock(1);
    co_await ctx.Write(addr, 1024);
    *ctx.Ptr<int64_t>(addr) += 1;
    co_await ctx.Unlock(1);
    co_await ctx.Barrier(0);
    co_await ctx.Read(addr, 8);
  });

  TraceCounts counts;
  WriteAndParse(::testing::TempDir() + "/hlrc_trace_spans.json", sys, &counts);
  if (HasFatalFailure()) {
    return;
  }
  ASSERT_GT(counts.slices, 0);
  EXPECT_EQ(counts.slices, static_cast<int64_t>(spans->spans().size()));
  size_t links = 0;
  for (const Span& s : spans->spans()) {
    links += s.links.size();
  }
  ASSERT_GT(links, 0u) << "no causal links recorded";
  EXPECT_EQ(counts.flow_starts.size(), links);
  EXPECT_EQ(counts.flow_starts, counts.flow_ends) << "unpaired flow events";
  for (const auto& [id, n] : counts.flow_starts) {
    EXPECT_EQ(n, 1) << "flow id " << id << " reused";
  }
  const Sampler& sampler = metrics->sampler();
  ASSERT_GT(counts.counters, 0);
  EXPECT_EQ(counts.counters,
            static_cast<int64_t>(sampler.series().size() * sampler.samples().size()));
  EXPECT_EQ(counts.other, 0) << "the trace holds only slices, flows and counters";
}

TEST(ChromeTrace, RunWithoutSpansStillStrictParses) {
  // Spans are on, but the program never blocks: no span is recorded, and
  // the counter tracks alone must form a well-formed array.
  System sys(testing::SmallConfig(ProtocolKind::kLrc, 2));
  sys.EnableMetrics(Micros(100));
  sys.EnableSpans();
  sys.Run([](NodeContext& ctx) -> Task<void> { co_await ctx.Compute(Micros(500)); });
  ASSERT_TRUE(sys.spans()->spans().empty());

  TraceCounts counts;
  WriteAndParse(::testing::TempDir() + "/hlrc_trace_nospans.json", sys, &counts);
  if (HasFatalFailure()) {
    return;
  }
  EXPECT_EQ(counts.slices, 0);
  EXPECT_TRUE(counts.flow_starts.empty());
  EXPECT_GT(counts.counters, 0);
  EXPECT_EQ(counts.other, 0);
}

TEST(ChromeTrace, UnwritablePathReturnsError) {
  System sys(testing::SmallConfig(ProtocolKind::kHlrc, 2));
  sys.EnableMetrics();
  sys.EnableSpans();
  sys.Run([](NodeContext& ctx) -> Task<void> { co_await ctx.Barrier(0); });

  std::string err;
  const std::string missing_dir = ::testing::TempDir() + "/hlrc-no-such-dir/trace.json";
  EXPECT_FALSE(WriteChromeTrace(missing_dir, *sys.spans(), sys.metrics()->sampler(), &err));
  EXPECT_NE(err.find(missing_dir), std::string::npos) << err;

  // A device that accepts the open but fails the write: the failure must
  // surface from the buffered write or the close, not be lost.
  if (access("/dev/full", W_OK) == 0) {
    err.clear();
    EXPECT_FALSE(WriteChromeTrace("/dev/full", *sys.spans(), sys.metrics()->sampler(), &err));
    EXPECT_FALSE(err.empty());
  }
}

}  // namespace
}  // namespace hlrc
