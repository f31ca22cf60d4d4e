// Golden determinism test: the simulator must produce bit-identical summary
// statistics for a fixed configuration, run to run and commit to commit.
//
// A Table-2-style summary (virtual time plus the operation/traffic totals
// behind the paper's tables) is pinned on 8 nodes to
// tests/golden/summary_8nodes.txt: every protocol family on sor, lu,
// water-nsq and raytrace, plus runs that force the paths the default
// configuration never takes (homeless garbage collection, home migration).
// Any change to scheduling,
// protocol logic, cost model or network timing that alters behavior shows up
// as a diff of that file — intentional changes are re-pinned with
//
//   HLRC_REGEN_GOLDEN=1 ./test_golden_determinism
//
// which rewrites the golden in the source tree; review the diff like code.
// Only integer virtual-time and counter fields are pinned (no floating
// point), so the file is platform-independent.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/check/explorer.h"
#include "src/wkld/recorder.h"
#include "src/wkld/replay.h"
#include "src/wkld/trace_file.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

constexpr int kNodes = 8;

std::string FormatSummary(const std::string& app_name, ProtocolKind kind, const RunReport& report);

SimConfig GoldenConfig(ProtocolKind kind) {
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = kind;
  return cfg;
}

// One run of `app_name` under `cfg`, which must verify.
RunReport GoldenRun(const std::string& app_name, const SimConfig& cfg) {
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  const AppRunResult r = RunApp(*app, cfg);
  EXPECT_TRUE(r.verified) << app_name << " under " << ProtocolName(cfg.protocol.kind) << ": "
                          << r.why;
  return r.report;
}

std::string SummaryLine(const std::string& app_name, ProtocolKind kind) {
  return FormatSummary(app_name, kind, GoldenRun(app_name, GoldenConfig(kind)));
}

// Same run with the metrics layer enabled: recording must be pure
// observation, so the summary line has to be bit-identical to SummaryLine's.
std::string SummaryLineWithMetrics(const std::string& app_name, ProtocolKind kind) {
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = kind;
  System sys(cfg);
  sys.EnableMetrics(Micros(100));
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << app_name << ": " << why;
  return FormatSummary(app_name, kind, sys.report());
}

// Same run with metrics AND the span tracer enabled: span recording is pure
// observation (no simulated time, no messages, no allocation visible to the
// protocols), so the summary line has to be bit-identical to SummaryLine's.
std::string SummaryLineWithSpans(const std::string& app_name, ProtocolKind kind) {
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = kind;
  System sys(cfg);
  sys.EnableMetrics(Micros(100));
  sys.EnableSpans();
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << app_name << ": " << why;
  EXPECT_FALSE(sys.spans()->spans().empty()) << "tracer attached but recorded nothing";
  return FormatSummary(app_name, kind, sys.report());
}

std::string FormatSummary(const std::string& app_name, ProtocolKind kind,
                          const RunReport& report) {
  const NodeReport t = report.Totals();
  std::ostringstream os;
  os << app_name << " " << ProtocolName(kind) << " nodes=" << kNodes
     << " time=" << report.total_time << " msgs=" << t.traffic.msgs_sent
     << " update_bytes=" << t.traffic.update_bytes_sent
     << " proto_bytes=" << t.traffic.protocol_bytes_sent
     << " read_misses=" << t.proto.read_misses << " write_faults=" << t.proto.write_faults
     << " page_fetches=" << t.proto.page_fetches << " diffs=" << t.proto.diffs_created
     << " applied=" << t.proto.diffs_applied << " locks=" << t.proto.lock_acquires
     << " barriers=" << t.proto.barriers << " intervals=" << t.proto.intervals_closed
     << " invalidations=" << t.proto.pages_invalidated
     << " proto_mem=" << t.proto_mem_highwater;
  return os.str();
}

std::string BuildSummary() {
  using testing::AllProtocols;
  using testing::PaperProtocols;
  std::ostringstream os;
  for (const std::string app : {"sor", "lu"}) {
    for (ProtocolKind kind : PaperProtocols()) {
      os << SummaryLine(app, kind) << "\n";
    }
  }
  for (const std::string app : {"sor", "lu"}) {
    for (ProtocolKind kind : {ProtocolKind::kErc, ProtocolKind::kAurc}) {
      os << SummaryLine(app, kind) << "\n";
    }
  }
  // Lock-based apps: the only default-configuration rows where HLRC diffs.
  for (const std::string app : {"water-nsq", "raytrace"}) {
    for (ProtocolKind kind : AllProtocols()) {
      os << SummaryLine(app, kind) << "\n";
    }
  }
  // Forced garbage collection in the homeless protocols.
  for (const std::string app : {"water-nsq", "lu"}) {
    for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kOlrc}) {
      SimConfig cfg = GoldenConfig(kind);
      cfg.protocol.gc_threshold_bytes = 4096;
      const RunReport report = GoldenRun(app, cfg);
      os << FormatSummary(app, kind, report)
         << " gc_threshold=4096 gc_runs=" << report.Totals().proto.gc_runs << "\n";
    }
  }
  // Every page homed on node 0, with migration to a stable remote writer.
  for (const std::string app : {"sor", "lu"}) {
    for (ProtocolKind kind : {ProtocolKind::kHlrc, ProtocolKind::kOhlrc, ProtocolKind::kAurc}) {
      SimConfig cfg = GoldenConfig(kind);
      cfg.protocol.home_policy = HomePolicy::kSingleNode;
      cfg.protocol.migrate_homes = true;
      os << FormatSummary(app, kind, GoldenRun(app, cfg)) << " home=single-node migrate_homes\n";
    }
  }
  return os.str();
}

std::string GoldenPath() { return std::string(HLRC_GOLDEN_DIR) + "/summary_8nodes.txt"; }

TEST(GoldenDeterminism, RepeatedRunsAreBitIdentical) {
  EXPECT_EQ(SummaryLine("sor", ProtocolKind::kHlrc), SummaryLine("sor", ProtocolKind::kHlrc));
}

TEST(GoldenDeterminism, MetricsCollectionDoesNotChangeTheRun) {
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kHlrc}) {
    EXPECT_EQ(SummaryLine("sor", kind), SummaryLineWithMetrics("sor", kind))
        << ProtocolName(kind);
  }
}

TEST(GoldenDeterminism, SpanTracingDoesNotChangeTheRun) {
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kHlrc, ProtocolKind::kErc,
                            ProtocolKind::kAurc}) {
    EXPECT_EQ(SummaryLine("sor", kind), SummaryLineWithSpans("sor", kind))
        << ProtocolName(kind);
  }
}

// The parallel seed-sweep driver (src/sim/sweep.h) must be an implementation
// detail: a schedule-exploration sweep aggregated across worker threads has to
// match the serial sweep exactly — same counters and the same failure
// callbacks in the same (seed) order.
TEST(GoldenDeterminism, ParallelSweepMatchesSerialSweep) {
  CheckConfig base;
  base.litmus = "barrier-propagation";
  base.protocol = ProtocolKind::kHlrc;
  // Inject a mutation so some seeds genuinely fail and exercise the
  // on_failure path on both sides (same setup as test_check's mutation
  // regression, which flags this bug within 200 seeds).
  base.mutation = TestMutation::kHlrcSkipDiffApply;
  constexpr uint64_t kFirstSeed = 1;
  constexpr int kSeeds = 200;

  auto run = [&](int jobs) {
    std::vector<std::pair<uint64_t, bool>> failures;
    const SweepResult r = Sweep(
        base, kFirstSeed, kSeeds,
        [&failures](uint64_t seed, const CheckResult& cr) {
          failures.emplace_back(seed, cr.ok);
        },
        jobs);
    return std::make_pair(r, failures);
  };

  const auto [serial, serial_failures] = run(1);
  const auto [parallel, parallel_failures] = run(4);
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.failures, parallel.failures);
  EXPECT_EQ(serial.found_failure, parallel.found_failure);
  EXPECT_EQ(serial.first_failing_seed, parallel.first_failing_seed);
  EXPECT_EQ(serial.reads_checked, parallel.reads_checked);
  EXPECT_EQ(serial.writes_recorded, parallel.writes_recorded);
  EXPECT_EQ(serial_failures, parallel_failures);
  EXPECT_GT(serial.failures, 0) << "mutation produced no failures; parity test is vacuous";
}

// Trace replay is pinned to the same bar as repeated runs: a recorded run
// replayed from its trace file must reproduce the original summary line bit
// for bit (src/wkld). Recording itself must also be pure observation.
TEST(GoldenDeterminism, ReplayReproducesRecordedRun) {
  const std::string path = ::testing::TempDir() + "/golden-replay.wkld";
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = ProtocolKind::kHlrc;

  std::string recorded;
  {
    std::unique_ptr<App> app = MakeApp("sor", AppScale::kTiny);
    System sys(cfg);
    wkld::TraceWriter writer(path, wkld::MakeTraceInfo(cfg, app->name(), "golden"));
    wkld::TraceRecorder recorder(&sys, &writer);
    sys.SetWorkloadObserver(&recorder);
    app->Setup(sys);
    sys.Run(app->Program());
    writer.Finish();
    std::string why;
    ASSERT_TRUE(app->Verify(sys, &why)) << why;
    recorded = FormatSummary("sor", ProtocolKind::kHlrc, sys.report());
  }
  EXPECT_EQ(SummaryLine("sor", ProtocolKind::kHlrc), recorded)
      << "recording perturbed the run it observed";

  std::string error;
  std::unique_ptr<wkld::TraceReplayApp> replay = wkld::TraceReplayApp::Open(path, &error);
  ASSERT_NE(nullptr, replay) << error;
  System sys(cfg);
  replay->Setup(sys);
  sys.Run(replay->Program());
  std::string why;
  ASSERT_TRUE(replay->Verify(sys, &why)) << why;
  EXPECT_EQ(recorded, FormatSummary("sor", ProtocolKind::kHlrc, sys.report()));
}

// The coalesced wire plane is opt-in: a default-constructed config has its
// one switch (NetworkConfig::coalesce: bundling, ack piggybacking and
// request combining) and the barrier tree off, which together with
// SummaryMatchesCheckedInGolden pins "flags off => bit-identical to the
// pre-coalescing golden" for all four protocol families.
TEST(GoldenDeterminism, CoalescedWirePlaneIsOffByDefault) {
  SimConfig cfg;
  EXPECT_FALSE(cfg.network.coalesce);
  EXPECT_EQ(cfg.protocol.barrier_arity, 0);
}

// Coalesce-on runs: deterministic, correct, and frame-accounting-consistent.
AppRunResult RunCoalesced(const std::string& app_name, ProtocolKind kind) {
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = kind;
  cfg.network.coalesce = true;
  cfg.protocol.barrier_arity = 4;
  return RunApp(*app, cfg);
}

// Logical protocol messages inside the frames: everything except standalone
// acks and the bundle frames themselves (each bundle is counted once per
// carried part).
int64_t LogicalMsgs(const NodeReport& t) {
  int64_t n = 0;
  for (size_t i = 0; i < t.traffic.msgs_by_type.size(); ++i) {
    if (i == static_cast<size_t>(MsgType::kAck) ||
        i == static_cast<size_t>(MsgType::kBundle)) {
      continue;
    }
    n += t.traffic.msgs_by_type[i];
  }
  return n;
}

TEST(GoldenDeterminism, CoalescedRunsAreBitIdenticalAndLogicallyEquivalent) {
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kOlrc, ProtocolKind::kHlrc,
                            ProtocolKind::kOhlrc}) {
    const AppRunResult a = RunCoalesced("sor", kind);
    const AppRunResult b = RunCoalesced("sor", kind);
    ASSERT_TRUE(a.verified) << ProtocolName(kind) << ": " << a.why;
    EXPECT_EQ(FormatSummary("sor", kind, a.report), FormatSummary("sor", kind, b.report))
        << ProtocolName(kind) << ": coalesce-on run is not deterministic";

    const NodeReport on = a.report.Totals();
    // Frame accounting must balance exactly: each bundle replaces its parts
    // with one frame, and (without reliability) there are no ack frames.
    EXPECT_EQ(on.traffic.msgs_sent,
              LogicalMsgs(on) - on.traffic.msgs_coalesced + on.traffic.frames_coalesced +
                  on.traffic.acks_sent)
        << ProtocolName(kind);
    EXPECT_EQ(on.traffic.acks_sent, 0) << ProtocolName(kind);

    // Against the plain run: the program-driven counters cannot move (the
    // wire plane repacks frames, it does not change what the app does), and
    // coalescing never adds frames.
    std::unique_ptr<App> app = MakeApp("sor", AppScale::kTiny);
    SimConfig cfg;
    cfg.nodes = kNodes;
    cfg.protocol.kind = kind;
    const AppRunResult plain = RunApp(*app, cfg);
    const NodeReport off = plain.report.Totals();
    EXPECT_EQ(on.proto.barriers, off.proto.barriers) << ProtocolName(kind);
    EXPECT_EQ(on.proto.lock_acquires, off.proto.lock_acquires) << ProtocolName(kind);
    EXPECT_LE(on.traffic.msgs_sent, off.traffic.msgs_sent) << ProtocolName(kind);
  }
}

TEST(GoldenDeterminism, SummaryMatchesCheckedInGolden) {
  const std::string actual = BuildSummary();
  if (std::getenv("HLRC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << actual;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath()
                         << " — run with HLRC_REGEN_GOLDEN=1 to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "summary drifted from " << GoldenPath()
      << "; if the behavior change is intentional, regenerate with "
         "HLRC_REGEN_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace hlrc
