// Tests of the benchmark's own measurement code: the RunReport digest, the
// kernel-window split of the traced pass, and each workload's shape at tiny
// scale.
#include <gtest/gtest.h>

#include <cstdint>

#include "perfbench/probe.h"

namespace perfbench {
namespace {

hlrc::RunReport NumberedReport() {
  hlrc::RunReport r;
  r.nodes.resize(2);
  r.phases[{0, 1}] = hlrc::NodeReport{};
  int64_t next = 1;
  ForEachField(r, [&next](int64_t& field) { field = next++; });
  return r;
}

TEST(Digest, VisitsEveryNodeReportField) {
  hlrc::NodeReport n;
  int64_t fields = 0;
  hlrc::RunReport r;
  r.nodes.push_back(n);
  ForEachField(r, [&fields](const int64_t&) { ++fields; });
  // total_time and app_memory_bytes, then one node. A field added to
  // NodeReport, ProtoStats or TrafficStats breaks this until the digest
  // covers it.
  EXPECT_EQ(fields - 2, static_cast<int64_t>(sizeof(hlrc::NodeReport) / sizeof(int64_t)));
}

TEST(Digest, ChangingAnyOneFieldChangesTheDigest) {
  const hlrc::RunReport base = NumberedReport();
  const uint64_t d0 = ReportDigest(base);
  EXPECT_LT(d0, uint64_t{1} << 52);
  int64_t count = 0;
  ForEachField(base, [&count](const int64_t&) { ++count; });
  for (int64_t target = 0; target < count; ++target) {
    hlrc::RunReport r = base;
    int64_t i = 0;
    ForEachField(r, [&](int64_t& field) {
      if (i++ == target) ++field;
    });
    EXPECT_NE(ReportDigest(r), d0) << "field " << target;
  }
  EXPECT_EQ(ReportDigest(NumberedReport()), d0);
}

class WorkloadShape : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadShape, RunsAtTinyScaleAndSplitsRunIntoKernelWindows) {
  const Workload& w = GetParam();
  RunOptions opt;
  opt.scale = hlrc::AppScale::kTiny;
  opt.seed = 7;
  opt.observability = w.observability;
  opt.out_dir = ::testing::TempDir();

  const Values plain = RunOnce(w, opt);
  EXPECT_EQ(plain.at("verified"), 1);
  EXPECT_EQ(plain.count("kernel_windows"), 0u);

  opt.traced = true;
  const Values traced = RunOnce(w, opt);
  EXPECT_EQ(traced.at("verified"), 1);
  EXPECT_GT(traced.at("svm.grants"), 0);
  EXPECT_EQ(traced.at("kernel_windows"), traced.at("svm.grants"));
  EXPECT_GT(traced.at("apps.kernel_s"), 0);
  EXPECT_LT(traced.at("apps.kernel_s"), traced.at("sim_s"));
  EXPECT_GT(traced.at("mem.prot_changes"), 0);
  // Observation is pure.
  EXPECT_EQ(traced.at("svm.digest"), plain.at("svm.digest"));
  EXPECT_EQ(traced.at("svm.virtual_s"), plain.at("svm.virtual_s"));

  if (w.observability) {
    EXPECT_GT(traced.at("svm.summary_mb"), 0);
    EXPECT_GT(traced.at("tracing.spans"), 0);
    opt.observability = false;
    const Values off = RunOnce(w, opt);
    EXPECT_EQ(off.at("verified"), 1);
    EXPECT_EQ(off.at("svm.digest"), plain.at("svm.digest"));
    EXPECT_EQ(off.at("svm.summary_mb"), 0);
    EXPECT_EQ(off.at("tracing.spans"), 0);
  }
}

TEST(WorkloadSeed, ChangesTheInputs) {
  RunOptions opt;
  opt.scale = hlrc::AppScale::kTiny;
  const Workload& w = *FindWorkload("wnsq-lrc-64-obs");
  opt.seed = 1;
  const double a = RunOnce(w, opt).at("svm.digest");
  EXPECT_EQ(RunOnce(w, opt).at("svm.digest"), a);
  opt.seed = 2;
  EXPECT_NE(RunOnce(w, opt).at("svm.digest"), a);
}

TEST(Calibration, RepeatsItsCheck) {
  const Calibration a = Calibrate();
  const Calibration b = Calibrate();
  EXPECT_GT(a.seconds, 0);
  EXPECT_GT(b.seconds, 0);
  EXPECT_EQ(a.check, b.check);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadShape, ::testing::ValuesIn(Workloads()),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace perfbench
