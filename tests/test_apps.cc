// Application correctness: every benchmark verifies against its sequential
// reference under every protocol and several node counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/app.h"
#include "src/apps/litmus.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

using AppCase = std::tuple<std::string, ProtocolKind, int>;

class AppCorrectnessTest : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppCorrectnessTest, VerifiesAgainstSequentialReference) {
  const auto& [name, kind, nodes] = GetParam();
  auto app = MakeApp(name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.page_size = 1024;
  cfg.shared_bytes = 16ll << 20;
  cfg.protocol.kind = kind;
  const AppRunResult result = RunApp(*app, cfg);
  EXPECT_TRUE(result.verified) << result.why;
  EXPECT_GT(result.report.total_time, 0);
}

std::vector<AppCase> AllCases() {
  std::vector<AppCase> cases;
  for (const std::string& name : AllAppNames()) {
    for (ProtocolKind kind : testing::AllProtocols()) {
      for (int nodes : {1, 4, 8, 16}) {
        cases.emplace_back(name, kind, nodes);
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<AppCase>& info) {
  std::string n = std::get<0>(info.param);
  for (char& c : n) {
    if (c == '-') {
      c = '_';
    }
  }
  return n + "_" + ProtocolName(std::get<1>(info.param)) + "_" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppCorrectnessTest, ::testing::ValuesIn(AllCases()),
                         CaseName);

double ReadDouble(const std::byte* at) {
  double v;
  std::memcpy(&v, at, sizeof v);
  return v;
}

void WriteDouble(std::byte* at, double v) { std::memcpy(at, &v, sizeof v); }

// Runs `name` at tiny scale on `nodes` nodes and checks that it verifies.
// Then `change` alters the result in place, given the system and the shared
// allocations in the order Setup made them, and Verify must fail; returns
// its message.
std::string WhyAfterChange(
    const std::string& name, int nodes,
    const std::function<void(System&, const std::vector<GlobalAddr>&)>& change) {
  auto app = MakeApp(name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.page_size = 1024;
  cfg.shared_bytes = 16ll << 20;
  System sys(cfg);
  std::vector<GlobalAddr> allocs;
  sys.space().SetAllocHook([&](GlobalAddr addr, int64_t, bool) { allocs.push_back(addr); });
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << why;
  change(sys, allocs);
  EXPECT_FALSE(app->Verify(sys, &why)) << name;
  return why;
}

// `why` names `quantity`, then "got X want Y": the two texts differ, X reads
// back as `got`, and Y is the 17-digit text of a double within `tolerance`
// of `want`. Six decimals fail this for values that differ by less than
// 1e-6: both texts come out the same.
void ExpectGotWant(const std::string& why, const std::string& quantity, double got, double want,
                   double tolerance) {
  const size_t named = why.find(quantity);
  ASSERT_NE(named, std::string::npos) << why;
  const size_t got_at = why.find("got ", named);
  const size_t want_at = why.find(" want ", named);
  ASSERT_NE(got_at, std::string::npos) << why;
  ASSERT_NE(want_at, std::string::npos) << why;
  const std::string got_text = why.substr(got_at + 4, want_at - got_at - 4);
  const char* want_begin = why.c_str() + want_at + 6;
  char* want_end = nullptr;
  const double want_read = std::strtod(want_begin, &want_end);
  const std::string want_text(want_begin, static_cast<size_t>(want_end - want_begin));
  char exact[40];
  std::snprintf(exact, sizeof exact, "%.17g", want_read);
  EXPECT_NE(got_text, want_text) << why;
  EXPECT_EQ(std::strtod(got_text.c_str(), nullptr), got) << why;
  EXPECT_EQ(want_text, exact) << why;
  EXPECT_LE(std::fabs(want_read - want), tolerance) << why;
}

// LU's check is exact, so a value one ulp off fails it.
TEST(AppVerify, LuNamesBothValuesOfAOneUlpMismatch) {
  double want = 0;
  double got = 0;
  const std::string why =
      WhyAfterChange("lu", 4, [&](System& sys, const std::vector<GlobalAddr>& allocs) {
        ASSERT_EQ(allocs.size(), 1u);
        // Element 0 of block (0, 0), which node 0 owns: a diagonal pivot
        // near n = 128.
        std::byte* at = sys.NodeMemory(0, allocs[0]);
        want = ReadDouble(at);
        got = std::nextafter(want, 2 * want);
        WriteDouble(at, got);
      });
  ExpectGotWant(why, "element 0 mismatch", got, want, 0.0);
}

// Water-Nsquared checks positions and velocities to 1e-7; its message names
// the one that failed. Node 0 owns molecule 0; Setup allocates positions,
// velocities and forces in that order.
TEST(AppVerify, WaterNsquaredNamesAVelocityThatDiffers) {
  double before = 0;
  double after = 0;
  const std::string why =
      WhyAfterChange("water-nsq", 4, [&](System& sys, const std::vector<GlobalAddr>& allocs) {
        std::byte* at = sys.NodeMemory(0, allocs[1]);
        before = ReadDouble(at);
        after = before + 1e-6;
        WriteDouble(at, after);
      });
  ExpectGotWant(why, "velocity of molecule 0, dim 0", after, before, 1e-7);
}

TEST(AppVerify, WaterNsquaredNamesAPositionThatDiffers) {
  double before = 0;
  double after = 0;
  const std::string why =
      WhyAfterChange("water-nsq", 4, [&](System& sys, const std::vector<GlobalAddr>& allocs) {
        std::byte* at = sys.NodeMemory(0, allocs[0]) + 8;
        before = ReadDouble(at);
        after = before + 2e-7;
        WriteDouble(at, after);
      });
  ExpectGotWant(why, "position of molecule 0, dim 1", after, before, 1e-7);
}

// Water-Spatial checks positions to 1e-7. On one node, node 0 wrote every
// molecule last.
TEST(AppVerify, WaterSpatialShowsBothValuesOfAPosition) {
  double before = 0;
  double after = 0;
  const std::string why =
      WhyAfterChange("water-sp", 1, [&](System& sys, const std::vector<GlobalAddr>& allocs) {
        std::byte* at = sys.NodeMemory(0, allocs[0]);
        before = ReadDouble(at);
        after = before - 2e-7;
        WriteDouble(at, after);
      });
  ExpectGotWant(why, "position of molecule 0, dim 0", after, before, 1e-7);
}

// FFT checks each complex value to 1e-9 relative. Its result is the second
// array, whose row 0 node 0 holds; element (0, 1)'s real part moves by ten
// times that tolerance, under 1e-6.
TEST(AppVerify, FftShowsBothValuesOfARealPart) {
  double before = 0;
  double after = 0;
  double tolerance = 0;
  const std::string why =
      WhyAfterChange("fft", 4, [&](System& sys, const std::vector<GlobalAddr>& allocs) {
        ASSERT_EQ(allocs.size(), 2u);
        std::byte* at = sys.NodeMemory(0, allocs[1]) + 16;
        before = ReadDouble(at);
        tolerance = 1e-9 * (1.0 + std::hypot(before, ReadDouble(at + 8)));
        after = before + 10 * tolerance;
        ASSERT_LT(10 * tolerance, 1e-6);
        WriteDouble(at, after);
      });
  ExpectGotWant(why, "col 1: real", after, before, 2 * tolerance);
}

// Checks that every value in `values` round-trips through `name`/`parse`,
// and that `parse` rejects each of `bad` without touching its output.
template <typename E>
void ExpectNameTable(std::initializer_list<E> values, const char* (*name)(E),
                     bool (*parse)(const std::string&, E*),
                     std::initializer_list<const char*> bad) {
  for (const E v : values) {
    E parsed = static_cast<E>(-1);
    ASSERT_TRUE(parse(name(v), &parsed)) << name(v);
    EXPECT_EQ(parsed, v) << name(v);
  }
  for (const char* b : bad) {
    E untouched = *values.begin();
    EXPECT_FALSE(parse(b, &untouched)) << b;
    EXPECT_EQ(untouched, *values.begin()) << b;
  }
}

// The configuration vocabulary every command line, report and repro file
// spells values with: each enumerator round-trips through each spelling its
// enum has, and anything else is rejected. ProtocolKind has two spellings,
// the flag "hlrc" and the report/repro name "HLRC".
TEST(ConfigNames, RoundTripAndRejectUnknown) {
  ExpectNameTable({AppScale::kTiny, AppScale::kDefault, AppScale::kPaper}, AppScaleName,
                  ParseAppScale, {"tny", "", "Paper", "default "});
  const auto protocols = {ProtocolKind::kLrc, ProtocolKind::kOlrc, ProtocolKind::kHlrc,
                          ProtocolKind::kOhlrc, ProtocolKind::kErc, ProtocolKind::kAurc};
  ExpectNameTable(protocols, ProtocolFlag, ParseProtocolFlag,
                  {"", "HLRC", "hlrc ", "h", "bogus"});
  ExpectNameTable(protocols, ProtocolName, ParseProtocolName,
                  {"", "hlrc", "HLRC ", "H", "BOGUS"});
  EXPECT_STREQ(ProtocolFlag(ProtocolKind::kOhlrc), "ohlrc");
  EXPECT_STREQ(ProtocolName(ProtocolKind::kOhlrc), "OHLRC");
  ExpectNameTable({TestMutation::kNone, TestMutation::kHlrcSkipDiffApply,
                   TestMutation::kLrcSkipInvalidate},
                  TestMutationName, ParseTestMutationName,
                  {"", "None", "hlrc-skip-diff", "lrc-skip-invalidate "});
  ExpectNameTable({DiffPolicy::kEager, DiffPolicy::kLazy}, DiffPolicyName, ParseDiffPolicyName,
                  {"", "Eager", "lazy ", "eagerly"});
  ExpectNameTable({HomePolicy::kBlock, HomePolicy::kRoundRobin, HomePolicy::kSingleNode},
                  HomePolicyName, ParseHomePolicyName,
                  {"", "Block", "round_robin", "single"});
}

// App-specific limits: the configurations a program cannot run on are named
// before the run, with the flag at fault; the largest ones it can are not.
TEST(AppLimits, ConfigErrorNamesTheFlag) {
  SimConfig cfg;
  auto error = [&cfg](const std::string& app, int nodes) {
    cfg.nodes = nodes;
    return MakeApp(app, AppScale::kTiny)->ConfigError(cfg);
  };
  EXPECT_EQ(error("sor", 128), "");
  EXPECT_EQ(error("sor", 1000),
            "--nodes=1000: expected at most 128 for SOR (one band of its 128 rows per node "
            "at this scale)");
  EXPECT_EQ(error("fft", 32), "");
  EXPECT_NE(error("fft", 33), "");
  EXPECT_EQ(error("water-nsq", 64), "");
  EXPECT_NE(error("water-nsq", 3), "");
  for (const char* app : {"lu", "water-sp", "raytrace"}) {
    EXPECT_EQ(error(app, 1000), "") << app;
  }
}

TEST(AppLimits, FalseSharingLitmusNeedsAWordPerNode) {
  LitmusConfig lcfg;
  lcfg.nodes = 4;
  EXPECT_EQ(MakeLitmus("false-sharing", lcfg)->ConfigError(32), "");
  EXPECT_EQ(MakeLitmus("false-sharing", lcfg)->ConfigError(8),
            "--page-size=8: expected at least 32 for false-sharing at --nodes=4 (one 8-byte "
            "word per node)");
  for (const std::string& name : LitmusNames()) {
    if (name != "false-sharing") {
      EXPECT_EQ(MakeLitmus(name, lcfg)->ConfigError(8), "") << name;
    }
  }
}

}  // namespace
}  // namespace hlrc
