// Application correctness: every benchmark verifies against its sequential
// reference under every protocol and several node counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <tuple>

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

// LU's check is exact, so a value one ulp off fails it; the message must then
// show two different numbers, each of which reads back as the double compared.
TEST(AppVerify, LuNamesBothValuesOfAOneUlpMismatch) {
  auto app = MakeApp("lu", AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 1024;
  cfg.shared_bytes = 16ll << 20;
  System sys(cfg);
  GlobalAddr matrix = 0;
  int allocs = 0;
  sys.space().SetAllocHook([&](GlobalAddr addr, int64_t, bool) {
    matrix = addr;
    ++allocs;
  });
  app->Setup(sys);
  ASSERT_EQ(allocs, 1);
  sys.Run(app->Program());
  std::string why;
  ASSERT_TRUE(app->Verify(sys, &why)) << why;

  // Element 0 of block (0, 0), which node 0 owns: a diagonal pivot near
  // n = 128, where six decimals cannot tell neighbouring doubles apart.
  std::byte* at = sys.NodeMemory(0, matrix);
  uint64_t bits;
  std::memcpy(&bits, at, sizeof bits);
  double want;
  std::memcpy(&want, &bits, sizeof want);
  bits ^= 1;  // The lowest mantissa bit.
  std::memcpy(at, &bits, sizeof bits);
  double got;
  std::memcpy(&got, &bits, sizeof got);

  ASSERT_FALSE(app->Verify(sys, &why));
  const size_t got_at = why.find("got ");
  const size_t want_at = why.find(" want ");
  ASSERT_NE(got_at, std::string::npos) << why;
  ASSERT_NE(want_at, std::string::npos) << why;
  const std::string got_text = why.substr(got_at + 4, want_at - got_at - 4);
  const std::string want_text = why.substr(want_at + 6);
  EXPECT_NE(got_text, want_text) << why;
  EXPECT_EQ(std::strtod(got_text.c_str(), nullptr), got) << why;
  EXPECT_EQ(std::strtod(want_text.c_str(), nullptr), want) << why;
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
