// Unit tests for the metrics layer: log2 histograms (merge/percentile
// properties and bucket-boundary edges), the registry's stable-pointer
// contract, the simulated-time sampler, the page-heat profiler, and the JSON
// writer/parser pair that backs the run-summary files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
  w.Double(-std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

// The writer prints numbers exactly as "%" PRId64 and "%.17g" do: run
// summaries are diffed across commits, and tests/golden/run_summary_tiny.json
// pins their bytes. These snprintf references live only here.
std::string ReferenceInt(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string ReferenceDouble(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string WrittenInt(int64_t v) {
  JsonWriter w;
  w.Int(v);
  return w.str();
}

std::string WrittenDouble(double v) {
  JsonWriter w;
  w.Double(v);
  return w.str();
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(JsonWriter, IntsMatchPrintf) {
  for (const int64_t v : {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(), int64_t{0}, int64_t{-1},
                          int64_t{9}, int64_t{10}, int64_t{-10}}) {
    EXPECT_EQ(WrittenInt(v), ReferenceInt(v));
  }
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    // Every magnitude, negatives included (a shift of 0 keeps the sign bit).
    const int64_t v = static_cast<int64_t>(rng.NextU64() >> rng.NextBounded(64));
    ASSERT_EQ(WrittenInt(v), ReferenceInt(v));
  }
}

TEST(JsonWriter, DoublesMatchPrintfOnEdgeValues) {
  const double two53 = 9007199254740992.0;
  for (const double v : {0.0, -0.0, 0.1, -0.1, 0.5, 1.5, two53 - 1, -(two53 - 1), two53,
                         -two53, two53 + 2, -(two53 + 2), 1e15 + 0.5, 1e16, 1e17, -1e17,
                         5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON, 1.0 / 3,
                         123456789.125, 9.2233720368547758e18, -9.2233720368547758e18}) {
    EXPECT_EQ(WrittenDouble(v), ReferenceDouble(v)) << "bits 0x" << std::hex << Bits(v);
  }
  EXPECT_EQ(WrittenDouble(-0.0), "-0");
}

TEST(JsonWriter, DoublesMatchPrintfOnRandomValues) {
  Rng rng(7);
  for (int i = 0; i < 500000; ++i) {
    // Random bit patterns: every exponent, subnormals, NaNs and infinities.
    const double any = FromBits(rng.NextU64());
    ASSERT_EQ(WrittenDouble(any), ReferenceDouble(any)) << "bits 0x" << std::hex << Bits(any);
    // Integer-valued doubles of every magnitude, on both sides of 2^53.
    const double count =
        static_cast<double>(static_cast<int64_t>(rng.NextU64() >> rng.NextBounded(64)));
    ASSERT_EQ(WrittenDouble(count), ReferenceDouble(count))
        << "bits 0x" << std::hex << Bits(count);
  }
}

TEST(JsonWriter, EscapesEveryByte) {
  for (int c = 0; c < 256; ++c) {
    std::string want;
    switch (c) {
      case '"':
        want = "\\\"";
        break;
      case '\\':
        want = "\\\\";
        break;
      case '\n':
        want = "\\n";
        break;
      case '\r':
        want = "\\r";
        break;
      case '\t':
        want = "\\t";
        break;
      case '\b':
        want = "\\b";
        break;
      case '\f':
        want = "\\f";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          want = buf;
        } else {
          want.assign(1, static_cast<char>(c));
        }
    }
    std::string s = "a";
    s += static_cast<char>(c);
    s += 'b';
    JsonWriter w;
    w.String(s);
    EXPECT_EQ(w.str(), std::string("\"a").append(want).append("b\"")) << "byte " << c;
    EXPECT_EQ(JsonWriter::Escape(s), std::string("a").append(want).append("b")) << "byte " << c;
  }
}

// A document several times kFlushBytes, with keys, escaped strings and both
// number paths.
void WriteLargeDocument(JsonWriter& w) {
  w.BeginObject();
  w.KV("name", "streamed \"doc\"\n");
  w.Key("rows");
  w.BeginArray();
  for (int i = 0; i < 20000; ++i) {
    w.BeginObject();
    w.KV("i", i);
    w.KV("x", i / 7.0);
    w.KV("tag", std::string(static_cast<size_t>(i % 5), static_cast<char>('a' + i % 26)));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

TEST(JsonWriter, StreamedWriteEqualsInMemoryText) {
  JsonWriter in_memory;
  WriteLargeDocument(in_memory);
  ASSERT_GT(in_memory.str().size(), 4 * JsonWriter::kFlushBytes);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  JsonWriter streamed(f);
  WriteLargeDocument(streamed);
  // It drained as it went: only the tail since the last drain is buffered.
  EXPECT_LT(streamed.str().size(), JsonWriter::kFlushBytes + 64);
  EXPECT_TRUE(streamed.Flush());
  EXPECT_TRUE(streamed.str().empty());

  std::rewind(f);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  EXPECT_EQ(text, in_memory.str());
}

TEST(JsonWriter, FlushReportsAShortWrite) {
  // A device that accepts the open but fails every write: the drains in the
  // middle of the document fail, and Flush must say so.
  if (access("/dev/full", W_OK) != 0) {
    return;
  }
  std::FILE* f = std::fopen("/dev/full", "w");
  ASSERT_NE(f, nullptr);
  JsonWriter w(f);
  WriteLargeDocument(w);
  EXPECT_FALSE(w.Flush());
  std::fclose(f);
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
