#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "src/common/cli.h"
#include "src/metrics/json.h"

namespace hlrc {
namespace bench {
namespace {

BenchOptions Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "bench";
  argv.push_back(prog.data());
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return ParseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchUtil, Defaults) {
  std::vector<std::string> none;
  const BenchOptions opts = Parse(none);
  EXPECT_EQ(opts.node_counts, (std::vector<int>{8, 32, 64}));
  EXPECT_EQ(opts.scale, AppScale::kDefault);
  EXPECT_EQ(opts.apps.size(), 5u);
  EXPECT_EQ(opts.protocols.size(), 4u);
  EXPECT_EQ(opts.base.page_size, 4096);
  EXPECT_TRUE(opts.verify);
}

TEST(BenchUtil, ParsesNodesList) {
  std::vector<std::string> args = {"--nodes=4,16"};
  const BenchOptions opts = Parse(std::move(args));
  EXPECT_EQ(opts.node_counts, (std::vector<int>{4, 16}));
}

TEST(BenchUtil, ParsesScaleAndApps) {
  std::vector<std::string> args = {"--scale=tiny", "--apps=lu,raytrace"};
  const BenchOptions opts = Parse(std::move(args));
  EXPECT_EQ(opts.scale, AppScale::kTiny);
  EXPECT_EQ(opts.apps, (std::vector<std::string>{"lu", "raytrace"}));
}

TEST(BenchUtil, ParsesProtocolsAndHome) {
  std::vector<std::string> args = {"--protocols=lrc,ohlrc", "--home=round-robin",
                                   "--page-size=8192", "--no-verify"};
  const BenchOptions opts = Parse(std::move(args));
  ASSERT_EQ(opts.protocols.size(), 2u);
  EXPECT_EQ(opts.protocols[0], ProtocolKind::kLrc);
  EXPECT_EQ(opts.protocols[1], ProtocolKind::kOhlrc);
  EXPECT_EQ(opts.base.protocol.home_policy, HomePolicy::kRoundRobin);
  EXPECT_EQ(opts.base.page_size, 8192);
  EXPECT_FALSE(opts.verify);
}

TEST(BenchUtil, BaseConfigReflectsOptions) {
  std::vector<std::string> args = {"--page-size=1024", "--home=single-node"};
  const BenchOptions opts = Parse(std::move(args));
  const SimConfig cfg = BaseConfig(opts, ProtocolKind::kOlrc, 16);
  EXPECT_EQ(cfg.nodes, 16);
  EXPECT_EQ(cfg.page_size, 1024);
  EXPECT_EQ(cfg.protocol.kind, ProtocolKind::kOlrc);
  EXPECT_EQ(cfg.protocol.home_policy, HomePolicy::kSingleNode);
}

TEST(BenchUtil, SequentialTimeIsPureCompute) {
  std::vector<std::string> args = {"--scale=tiny"};
  const BenchOptions opts = Parse(std::move(args));
  const SimTime t = SequentialTime("sor", opts);
  EXPECT_GT(t, 0);
  // Sequential compute is protocol independent.
  BenchOptions opts2 = opts;
  opts2.protocols = {ProtocolKind::kLrc};
  EXPECT_EQ(SequentialTime("sor", opts2), t);
}

TEST(BenchUtil, RunVerifiedReturnsReport) {
  std::vector<std::string> args = {"--scale=tiny"};
  const BenchOptions opts = Parse(std::move(args));
  const AppRunResult r = RunVerified("lu", opts, BaseConfig(opts, ProtocolKind::kHlrc, 4));
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.report.total_time, 0);
  EXPECT_EQ(r.report.nodes.size(), 4u);
}

// --json files: rows written straight through the JsonWriter, inside the
// "hlrc-bench" v1 envelope.
TEST(BenchUtil, BenchJsonWrapsRowsInTheEnvelope) {
  JsonWriter json = OpenBenchJson("paper_grid");
  json.BeginObject();
  json.KV("app", "sor");
  json.KV("nodes", 8);
  json.KV("speedup", 2.5);
  json.EndObject();
  const std::string path = ::testing::TempDir() + "bench_json_envelope.json";
  WriteBenchJson(json, path);
  std::ifstream in(path);
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(text, &doc, &error)) << error;
  EXPECT_EQ(doc.GetString("schema"), "hlrc-bench");
  EXPECT_EQ(doc.GetInt("version"), 1);
  EXPECT_EQ(doc.GetString("bench"), "paper_grid");
  const JsonValue* rows = doc.Find("rows");
  ASSERT_TRUE(rows != nullptr && rows->IsArray());
  ASSERT_EQ(rows->arr.size(), 1u);
  EXPECT_EQ(rows->arr[0].GetString("app"), "sor");
  EXPECT_EQ(rows->arr[0].GetInt("nodes"), 8);
  EXPECT_EQ(rows->arr[0].GetDouble("speedup"), 2.5);
}

// A bench run whose results cannot be written stops instead of losing them.
TEST(BenchUtilDeathTest, BenchJsonAbortsWhenTheFileCannotBeWritten) {
  JsonWriter json = OpenBenchJson("paper_grid");
  EXPECT_DEATH(WriteBenchJson(json, ::testing::TempDir() + "no-such-dir/out.json"),
               "cannot open");
}

// The shared value parsers behind every command line (src/common/cli.h):
// whole-string, range-checked, and output untouched on failure.
TEST(CliValues, CheckedParsersRejectMalformedValues) {
  int n = 7;
  for (const char* bad : {"", "abc", "64k", "8 ", " 8", "+8", "1.5", "0x10", "0", "-5",
                          "99999999999"}) {
    EXPECT_FALSE(ParseInt(bad, &n, 1)) << "'" << bad << "'";
  }
  EXPECT_EQ(n, 7);
  EXPECT_TRUE(ParseInt("64", &n, 1));
  EXPECT_EQ(n, 64);
  EXPECT_FALSE(ParseInt("65", &n, 1, 64));

  uint64_t seed = 3;
  EXPECT_FALSE(ParseInt("-1", &seed));  // No wrap-around into an unsigned.
  EXPECT_FALSE(ParseInt("18446744073709551616", &seed));
  EXPECT_EQ(seed, 3u);
  EXPECT_TRUE(ParseInt("18446744073709551615", &seed));
  EXPECT_EQ(seed, UINT64_MAX);

  double p = 0.25;
  for (const char* bad : {"", "abc", "0.5x", " 0.5", "1.5", "-0.1", "nan", "inf"}) {
    EXPECT_FALSE(ParseProbability(bad, &p)) << "'" << bad << "'";
  }
  EXPECT_EQ(p, 0.25);
  EXPECT_TRUE(ParseProbability("0.01", &p));
  EXPECT_EQ(p, 0.01);
  EXPECT_TRUE(ParseProbability("1", &p));
  EXPECT_EQ(p, 1.0);
  EXPECT_FALSE(ParseReal("-1", &p, 0, 10));
  EXPECT_TRUE(ParseReal("2.5", &p, 0, 10));
  EXPECT_EQ(p, 2.5);

  SimTime t = 5;
  EXPECT_FALSE(ParseMicros("0", &t, 1));
  EXPECT_FALSE(ParseMicros("10us", &t, 1));
  EXPECT_FALSE(ParseMicros("9223372036854775807", &t, 1));  // Would overflow as ns.
  EXPECT_EQ(t, 5);
  EXPECT_TRUE(ParseMicros("150", &t, 0));
  EXPECT_EQ(t, Micros(150));

  EXPECT_EQ(SplitList("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitList("").empty());
  EXPECT_TRUE(SplitList(",").empty());
}

// Malformed flag values print usage and exit 2 instead of aborting or
// running a silently misread configuration.
TEST(BenchUtilDeathTest, MalformedValuesExitWithUsage) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(Parse({"--protocols=bogus"}), ExitedWithCode(2), "--protocols=bogus: expected");
  EXPECT_EXIT(Parse({"--protocols=lrc,HLRC"}), ExitedWithCode(2),
              "--protocols=lrc,HLRC: expected");
  EXPECT_EXIT(Parse({"--apps=nosuch"}), ExitedWithCode(2), "unknown app 'nosuch'");
  EXPECT_EXIT(Parse({"--apps=,"}), ExitedWithCode(2), "--apps=,: expected");
  EXPECT_EXIT(Parse({"--nodes=abc"}), ExitedWithCode(2), "--nodes=abc: expected");
  EXPECT_EXIT(Parse({"--nodes=8,0"}), ExitedWithCode(2), "--nodes=8,0: expected");
  EXPECT_EXIT(Parse({"--fault-drop=1.5"}), ExitedWithCode(2), "--fault-drop=1.5: expected");
  EXPECT_EXIT(Parse({"--page-size=4k"}), ExitedWithCode(2), "--page-size=4k: expected");
  // Values that parse but cannot cut the shared space into pages.
  EXPECT_EXIT(Parse({"--page-size=100"}), ExitedWithCode(2),
              "--page-size=100: expected a power of two");
  EXPECT_EXIT(Parse({"--page-size=4"}), ExitedWithCode(2), "--page-size=4: expected");
  EXPECT_EXIT(Parse({"--page-size=536870912"}), ExitedWithCode(2),
              "--page-size=536870912: expected");
}

// A run that would break an application's own limit exits 2 before it
// starts, naming the flag, instead of aborting inside the run.
TEST(BenchUtilDeathTest, AppLimitsExitWithUsage) {
  using ::testing::ExitedWithCode;
  const BenchOptions opts = Parse({"--scale=tiny"});
  EXPECT_EXIT(RunVerified("sor", opts, BaseConfig(opts, ProtocolKind::kHlrc, 1000)),
              ExitedWithCode(2), "--nodes=1000: expected at most 128 for SOR");
  EXPECT_EXIT(RunVerified("water-nsq", opts, BaseConfig(opts, ProtocolKind::kLrc, 3)),
              ExitedWithCode(2), "--nodes=3: expected a divisor of 128 for Water-Nsquared");
  EXPECT_EXIT(RunVerified("fft", opts, BaseConfig(opts, ProtocolKind::kHlrc, 64)),
              ExitedWithCode(2), "--nodes=64: expected at most 32 for FFT");
}

// The limits are checked per run, not by ParseArgs: a binary narrows the
// apps, node counts and page sizes it runs. ablation_page_size --scale=tiny
// --nodes=8,32,96 runs only SOR and Raytrace, at 32 nodes; that Water-Nsquared
// cannot run on 96 nodes must not stop it.
TEST(BenchUtil, AppLimitsApplyOnlyToTheRunsMade) {
  const BenchOptions opts = Parse({"--scale=tiny", "--nodes=8,32,96"});
  EXPECT_EQ(opts.node_counts, (std::vector<int>{8, 32, 96}));
  EXPECT_EQ(opts.apps.size(), 5u);
  BenchOptions o = opts;
  o.base.page_size = 1024;
  EXPECT_TRUE(RunVerified("sor", o, BaseConfig(o, ProtocolKind::kHlrc, 32)).verified);
}

// The one page-size rule every front end applies: a power of two, at least
// the caller's minimum and at most the shared space.
TEST(BenchUtil, PageSizeIsAPowerOfTwoWithinTheSpace) {
  EXPECT_EQ(PageSizeError(4096, 64 << 20), "");
  EXPECT_EQ(PageSizeError(kMinPageBytes, 1 << 20), "");
  EXPECT_EQ(PageSizeError(1 << 20, 1 << 20), "");
  EXPECT_EQ(PageSizeError(100, 64 << 20),
            "--page-size=100: expected a power of two from 8 to 67108864");
  EXPECT_NE(PageSizeError(0, 1 << 20), "");
  EXPECT_NE(PageSizeError(4, 1 << 20), "");
  EXPECT_NE(PageSizeError(2 << 20, 1 << 20), "");
  EXPECT_NE(PageSizeError(128, 1 << 20, 256), "");
  EXPECT_EQ(PageSizeError(256, 1 << 20, 256), "");

  SimConfig cfg;
  EXPECT_EQ(cfg.Validate(), "");
  cfg.page_size = 3000;
  EXPECT_EQ(cfg.Validate(), PageSizeError(3000, cfg.shared_bytes));
}

// A piggybacked ack may wait kAckDelay, so under --coalesce a retransmit
// timeout at or below it is a usage error, not an abort inside the network.
TEST(BenchUtil, CoalescedRetryTimeoutExceedsTheAckDelay) {
  SimConfig cfg;
  cfg.network.coalesce = true;
  cfg.reliability.enabled = true;
  cfg.reliability.retry_timeout = kAckDelay;
  EXPECT_EQ(cfg.Validate(), "--retry-timeout=1500: expected more than 1500 with --coalesce");
  cfg.reliability.retry_timeout = kAckDelay + Micros(1);
  EXPECT_EQ(cfg.Validate(), "");
  // Fault injection turns reliable delivery on by itself.
  cfg.reliability.enabled = false;
  cfg.reliability.retry_timeout = Micros(1000);
  cfg.fault.drop_prob = 0.01;
  EXPECT_EQ(cfg.Validate(), "--retry-timeout=1000: expected more than 1500 with --coalesce");
  cfg.network.coalesce = false;
  EXPECT_EQ(cfg.Validate(), "");
}

}  // namespace
}  // namespace bench
}  // namespace hlrc
