// Unit tests for the metrics layer: log2 histograms (merge/percentile
// properties and bucket-boundary edges), the registry's stable-pointer
// contract, the simulated-time sampler, the page-heat profiler, and the JSON
// writer/parser pair that backs the run-summary files.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/metrics/heat.h"
#include "src/metrics/histogram.h"
#include "src/metrics/json.h"
#include "src/metrics/json_writer.h"
#include "src/metrics/registry.h"
#include "src/metrics/sampler.h"
#include "src/sim/engine.h"

namespace hlrc {
namespace {

// ---------------------------------------------------------------------------
// Histogram.

TEST(Histogram, EmptyIsZeroed) {
  Histogram h;
  EXPECT_TRUE(h.Empty());
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  for (int k = 1; k < 62; ++k) {
    const int64_t lo = int64_t{1} << k;
    // 2^k - 1 and 2^k land in adjacent buckets.
    EXPECT_EQ(Histogram::BucketOf(lo - 1) + 1, Histogram::BucketOf(lo)) << "k=" << k;
    EXPECT_EQ(Histogram::BucketLow(Histogram::BucketOf(lo)), lo);
    EXPECT_EQ(Histogram::BucketHigh(Histogram::BucketOf(lo - 1)), lo - 1);
  }
  EXPECT_EQ(Histogram::BucketOf(std::numeric_limits<int64_t>::max()), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketHigh(Histogram::kBuckets - 1),
            std::numeric_limits<int64_t>::max());
}

TEST(Histogram, RecordsEdgeValues) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(h.Count(), 3);
  // 1 + INT64_MAX does not fit: the sum saturates instead of overflowing.
  EXPECT_EQ(h.Sum(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(h.buckets()[0], 1);
  EXPECT_EQ(h.buckets()[1], 1);
  EXPECT_EQ(h.buckets()[Histogram::kBuckets - 1], 1);
  // Negative values clamp to 0 rather than corrupting a bucket index.
  h.Record(-5);
  EXPECT_EQ(h.buckets()[0], 2);
  EXPECT_EQ(h.Min(), 0);
}

TEST(Histogram, PercentileBracketsAndMonotone) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.Percentile(0), static_cast<double>(h.Min()));
  EXPECT_EQ(h.Percentile(100), static_cast<double>(h.Max()));
  double prev = -1;
  for (double p = 0; p <= 100; p += 0.5) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    EXPECT_GE(v, static_cast<double>(h.Min()));
    EXPECT_LE(v, static_cast<double>(h.Max()));
    prev = v;
  }
  // The estimate of the median of 1..1000 must land within its 2x bucket.
  EXPECT_GE(h.Percentile(50), 256.0);
  EXPECT_LE(h.Percentile(50), 1023.0);
}

TEST(Histogram, MergeOfSplitEqualsCombined) {
  // Property: recording a stream into one histogram equals splitting the
  // stream arbitrarily across two and merging.
  Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram combined, a, b;
    const int n = static_cast<int>(rng.NextInt(1, 500));
    for (int i = 0; i < n; ++i) {
      // Mix magnitudes so many buckets are hit: value = random in [0, 2^k).
      const int k = static_cast<int>(rng.NextInt(0, 40));
      const int64_t v = static_cast<int64_t>(rng.NextBounded((uint64_t{1} << k) + 1));
      combined.Record(v);
      (rng.NextBool() ? a : b).Record(v);
    }
    a.Merge(b);
    EXPECT_EQ(a.Count(), combined.Count());
    EXPECT_EQ(a.Sum(), combined.Sum());
    EXPECT_EQ(a.Min(), combined.Min());
    EXPECT_EQ(a.Max(), combined.Max());
    EXPECT_EQ(a.buckets(), combined.buckets());
    for (double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
      EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << "p=" << p;
    }
  }
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram h, empty;
  h.Record(7);
  h.Merge(empty);
  EXPECT_EQ(h.Count(), 1);
  EXPECT_EQ(h.Min(), 7);
  empty.Merge(h);
  EXPECT_EQ(empty.Count(), 1);
  EXPECT_EQ(empty.Max(), 7);
}

TEST(Histogram, MergeSaturatesTheSum) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  Histogram big, small;
  big.Record(max - 1);
  small.Record(2);
  small.Record(3);
  big.Merge(small);
  EXPECT_EQ(big.Count(), 3);
  EXPECT_EQ(big.Sum(), max);
  EXPECT_EQ(big.Min(), 2);
  EXPECT_EQ(big.Max(), max - 1);
  // Merging into the saturated sum keeps it at the bound.
  big.Merge(small);
  EXPECT_EQ(big.Count(), 5);
  EXPECT_EQ(big.Sum(), max);
  // Below the bound the merged sum stays exact.
  Histogram exact;
  exact.Record(max - 6);
  exact.Merge(small);
  EXPECT_EQ(exact.Sum(), max - 1);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistry, PointersAreStableAcrossRegistrations) {
  MetricsRegistry reg(4);
  int64_t* c0 = reg.Counter("a", 0);
  Histogram* h0 = reg.Histo("h", 0);
  // Registering many more names must not move previously handed-out
  // pointers (hot paths cache them for the whole run).
  for (int i = 0; i < 200; ++i) {
    reg.Counter("counter" + std::to_string(i), i % 4);
    reg.Histo("histo" + std::to_string(i), i % 4);
  }
  EXPECT_EQ(reg.Counter("a", 0), c0);
  EXPECT_EQ(reg.Histo("h", 0), h0);
  *c0 += 5;
  EXPECT_EQ(reg.CounterTotal("a"), 5);
}

TEST(MetricsRegistry, MergedHistoAggregatesNodes) {
  MetricsRegistry reg(3);
  reg.Histo("lat", 0)->Record(1);
  reg.Histo("lat", 1)->Record(100);
  reg.Histo("lat", 2)->Record(10000);
  const Histogram m = reg.MergedHisto("lat");
  EXPECT_EQ(m.Count(), 3);
  EXPECT_EQ(m.Min(), 1);
  EXPECT_EQ(m.Max(), 10000);
  EXPECT_EQ(reg.MergedHisto("absent").Count(), 0);
}

// ---------------------------------------------------------------------------
// Sampler.

TEST(Sampler, SamplesAtIntervalAndStopsWithQueue) {
  Engine eng;
  int64_t counter = 0;
  Sampler s(&eng, Micros(10));
  s.AddSeries("c", -1, [&] { return static_cast<double>(counter); });
  // Application events: bump the counter at 5us, 25us, 45us; queue drains at
  // 45us, so sampling must stop shortly after rather than ticking forever.
  for (int i = 0; i < 3; ++i) {
    eng.ScheduleAt(Micros(5 + 20 * i), [&] { ++counter; });
  }
  s.Start();
  eng.Run();
  ASSERT_GE(s.samples().size(), 5u);
  EXPECT_FALSE(s.truncated());
  // t=0 sample plus every 10us; values reflect state at each tick.
  EXPECT_EQ(s.samples()[0].time, 0);
  EXPECT_EQ(s.samples()[0].values[0], 0.0);
  EXPECT_EQ(s.samples()[1].time, Micros(10));
  EXPECT_EQ(s.samples()[1].values[0], 1.0);
  EXPECT_EQ(s.samples()[3].time, Micros(30));
  EXPECT_EQ(s.samples()[3].values[0], 2.0);
  for (size_t i = 1; i < s.samples().size(); ++i) {
    EXPECT_EQ(s.samples()[i].time - s.samples()[i - 1].time, Micros(10));
  }
  // The sampler must not have kept the engine alive much past the last app
  // event (one trailing tick is fine).
  EXPECT_LE(s.samples().back().time, Micros(60));
}

TEST(Sampler, TruncatesAtMaxSamples) {
  Engine eng;
  Sampler s(&eng, Micros(1), /*max_samples=*/8);
  s.AddSeries("x", 0, [] { return 1.0; });
  eng.ScheduleAt(Millis(1), [] {});  // Keep the queue non-empty for 1 ms.
  s.Start();
  eng.Run();
  EXPECT_EQ(s.samples().size(), 8u);
  EXPECT_TRUE(s.truncated());
}

TEST(Sampler, NoSeriesMeansNoEvents) {
  Engine eng;
  Sampler s(&eng, Micros(1));
  s.Start();
  eng.Run();
  EXPECT_TRUE(s.samples().empty());
  EXPECT_EQ(eng.events_processed(), 0);
}

TEST(Sampler, ChromeCounterEventsAreParseableJson) {
  Engine eng;
  Sampler s(&eng, Micros(10));
  s.AddSeries("bytes_in_flight", 2, [] { return 42.0; });
  eng.ScheduleAt(Micros(15), [] {});
  s.Start();
  eng.Run();
  const std::string events = ChromeCounterEvents(s);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson("[" + events + "]", &v, &err)) << err;
  ASSERT_GE(v.arr.size(), 2u);
  EXPECT_EQ(v.arr[0].GetString("ph"), "C");
  EXPECT_EQ(v.arr[0].GetString("name"), "bytes_in_flight");
  EXPECT_EQ(v.arr[0].GetInt("pid"), 2);  // Counter tracks group by node.
  EXPECT_EQ(v.arr[0].Find("args")->GetDouble("value"), 42.0);
}

// ---------------------------------------------------------------------------
// Page heat.

TEST(PageHeat, TopNRanksByScoreAndTracksWriters) {
  PageHeatProfiler heat(16);
  heat.OnFault(3, /*is_write=*/false);
  heat.OnFetch(3, 4096);
  // Page 3 scores 1 fault + 1 fetch + 4096/64 = 66; give page 7 strictly
  // more protocol work so the ranking is unambiguous.
  for (int i = 0; i < 50; ++i) {
    heat.OnFault(7, /*is_write=*/true);
    heat.OnDiffApplied(7, 128);
  }
  heat.OnWrite(7, 0);
  heat.OnWrite(7, 5);
  heat.OnWrite(7, 5);  // Same writer twice: mask counts distinct nodes.

  const auto top = heat.TopN(10);
  ASSERT_EQ(top.size(), 2u);  // Only touched pages appear.
  EXPECT_EQ(top[0].page, 7);
  EXPECT_EQ(top[1].page, 3);
  EXPECT_GT(top[0].heat.Score(), top[1].heat.Score());
  EXPECT_EQ(top[0].heat.Writers(), 2);
  EXPECT_EQ(top[0].heat.write_faults, 50);
  EXPECT_EQ(top[1].heat.read_faults, 1);
  EXPECT_EQ(top[1].heat.fetch_bytes, 4096);
  EXPECT_EQ(heat.TopN(1).size(), 1u);
}

// ---------------------------------------------------------------------------
// JSON writer + parser.

TEST(JsonWriter, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.KV("plain", "x");
  w.KV("tricky", "quote\" slash\\ nl\n tab\t ctl\x01");
  w.Key("arr");
  w.BeginArray();
  w.Int(-3);
  w.Double(1.5);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.EndObject();
  w.EndObject();

  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(w.str(), &v, &err)) << err << " in " << w.str();
  EXPECT_EQ(v.GetString("tricky"), "quote\" slash\\ nl\n tab\t ctl\x01");
  ASSERT_EQ(v.Find("arr")->arr.size(), 4u);
  EXPECT_EQ(v.Find("arr")->arr[0].AsInt(), -3);
  EXPECT_EQ(v.Find("arr")->arr[1].AsDouble(), 1.5);
  EXPECT_TRUE(v.Find("arr")->arr[2].AsBool());
  EXPECT_TRUE(v.Find("arr")->arr[3].IsNull());
  EXPECT_TRUE(v.Find("nested")->IsObject());
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(w.str(), &v, &err)) << err;
  EXPECT_TRUE(v.arr[0].IsNull());
  EXPECT_TRUE(v.arr[1].IsNull());
}

TEST(JsonParser, RoundTripsNumbers) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson("[0, -1, 9007199254740993, 1.25, 1e3, -2.5e-2]", &v, &err)) << err;
  EXPECT_TRUE(v.arr[0].is_int);
  EXPECT_EQ(v.arr[1].AsInt(), -1);
  EXPECT_EQ(v.arr[2].AsInt(), 9007199254740993ll);  // Exceeds double precision.
  EXPECT_FALSE(v.arr[3].is_int);
  EXPECT_EQ(v.arr[3].AsDouble(), 1.25);
  EXPECT_EQ(v.arr[4].AsDouble(), 1000.0);
  EXPECT_EQ(v.arr[5].AsDouble(), -0.025);
}

TEST(JsonParser, HandlesUnicodeEscapes) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson("\"a\\u0041 \\u00e9 \\ud83d\\ude00\"", &v, &err)) << err;
  EXPECT_EQ(v.AsString(), "aA \xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(JsonParser, RejectsMalformedInput) {
  const char* kBad[] = {
      "",                    // empty
      "{",                   // unterminated object
      "[1,]",                // trailing comma
      "{\"a\":1,}",          // trailing comma in object
      "{\"a\" 1}",           // missing colon
      "\"unterminated",      // unterminated string
      "\"bad\\q\"",          // bad escape
      "01",                  // leading zero
      "1 2",                 // trailing data
      "nulll",               // trailing data after literal
      "\"\\ud83d\"",         // lone surrogate
      "{\"a\":}",            // missing value
  };
  for (const char* text : kBad) {
    JsonValue v;
    std::string err;
    EXPECT_FALSE(ParseJson(text, &v, &err)) << "accepted: " << text;
    EXPECT_FALSE(err.empty());
  }
}

TEST(JsonParser, DuplicateKeysKeepLast) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson("{\"a\":1,\"a\":2}", &v, &err)) << err;
  EXPECT_EQ(v.GetInt("a"), 2);
}

}  // namespace
}  // namespace hlrc
