// The execution trace (svmsim --trace): WriteChromeTrace draws a run's span
// slices, causal flow arrows and metric counter tracks into one Chrome
// trace-event file, which must survive a strict parse.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/metrics/json.h"
#include "src/metrics/sampler.h"
#include "src/sim/engine.h"
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

// One "C" event of a trace file.
struct CounterEvent {
  std::string name;
  int64_t pid;
  double ts;
  double value;
};

// Events of a strict-parsed trace file, tallied by phase.
struct TraceCounts {
  int64_t slices = 0;
  int64_t other = 0;
  std::map<int64_t, int> flow_starts;  // Flow id -> "s" events.
  std::map<int64_t, int> flow_ends;    // Flow id -> "f" events.
  std::vector<CounterEvent> counter_events;  // In file order.
};

void WriteAndParse(const std::string& path, const SpanTracer& tracer, const Sampler& sampler,
                   TraceCounts* counts) {
  std::string err;
  ASSERT_TRUE(WriteChromeTrace(path, tracer, sampler, &err)) << err;
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
      const JsonValue* args = ev.Find("args");
      ASSERT_NE(args, nullptr);
      counts->counter_events.push_back(CounterEvent{ev.GetString("name"), ev.GetInt("pid"),
                                                    ev.GetDouble("ts"),
                                                    args->GetDouble("value")});
    } else {
      ++counts->other;
    }
  }
}

void WriteAndParse(const std::string& path, const System& sys, TraceCounts* counts) {
  WriteAndParse(path, *sys.spans(), sys.metrics()->sampler(), counts);
}

// Counter events come series by series, one per sample, each on its series'
// track (pid = node, 0 for a machine-wide series) with the sampled value.
void ExpectCountersMatchSampler(const TraceCounts& counts, const Sampler& sampler) {
  const std::vector<Sampler::SeriesInfo>& series = sampler.series();
  const std::vector<Sampler::Sample>& samples = sampler.samples();
  ASSERT_EQ(counts.counter_events.size(), series.size() * samples.size());
  size_t i = 0;
  for (size_t si = 0; si < series.size(); ++si) {
    for (const Sampler::Sample& s : samples) {
      const CounterEvent& ev = counts.counter_events[i++];
      EXPECT_EQ(ev.name, series[si].name);
      EXPECT_EQ(ev.pid, series[si].node < 0 ? 0 : series[si].node) << ev.name;
      EXPECT_DOUBLE_EQ(ev.ts, ToMicros(s.time)) << ev.name;
      EXPECT_EQ(ev.value, s.values[si]) << ev.name << " at " << s.time;
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
  ASSERT_FALSE(counts.counter_events.empty());
  ExpectCountersMatchSampler(counts, metrics->sampler());
  EXPECT_EQ(counts.other, 0) << "the trace holds only slices, flows and counters";
}

TEST(ChromeTrace, CounterEventsCarrySeriesNamePidAndValue) {
  Engine eng;
  Sampler sampler(&eng, Micros(10));
  sampler.AddSeries("bytes_in_flight", 2, [] { return 42.0; });
  sampler.AddSeries("a \"quoted\" series", -1, [&eng] { return ToMicros(eng.Now()) / 3; });
  eng.ScheduleAt(Micros(15), [] {});
  sampler.Start();
  eng.Run();
  ASSERT_GE(sampler.samples().size(), 2u);

  const SpanTracer no_spans;
  TraceCounts counts;
  WriteAndParse(::testing::TempDir() + "/hlrc_trace_counters.json", no_spans, sampler, &counts);
  if (HasFatalFailure()) {
    return;
  }
  EXPECT_EQ(counts.slices, 0);
  ASSERT_NO_FATAL_FAILURE(ExpectCountersMatchSampler(counts, sampler));
  EXPECT_EQ(counts.counter_events.front().pid, 2);  // Counter tracks group by node.
  EXPECT_EQ(counts.counter_events.front().value, 42.0);
  EXPECT_EQ(counts.counter_events.back().name, "a \"quoted\" series");
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
  EXPECT_FALSE(counts.counter_events.empty());
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
