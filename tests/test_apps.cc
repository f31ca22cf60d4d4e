// Application correctness: every benchmark verifies against its sequential
// reference under every protocol and several node counts.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/apps/app.h"
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

TEST(AppScaleNames, RoundTripAndRejectUnknown) {
  for (const AppScale s : {AppScale::kTiny, AppScale::kDefault, AppScale::kPaper}) {
    AppScale parsed = s == AppScale::kTiny ? AppScale::kPaper : AppScale::kTiny;
    ASSERT_TRUE(ParseAppScale(AppScaleName(s), &parsed)) << AppScaleName(s);
    EXPECT_EQ(parsed, s);
  }
  AppScale untouched = AppScale::kPaper;
  for (const char* bad : {"tny", "", "Paper", "default "}) {
    EXPECT_FALSE(ParseAppScale(bad, &untouched)) << bad;
  }
  EXPECT_EQ(untouched, AppScale::kPaper);
}

}  // namespace
}  // namespace hlrc
