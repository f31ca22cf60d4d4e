// Fuzzer subsystem tests (src/fuzz, docs/FUZZING.md): coverage-map
// determinism, genome mutation invariants, corpus dedup, the differential
// harness's clean bill on the unmutated build, the two mutation-canary
// regressions, guided-vs-random coverage, and reproducer round-trips.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/fuzz/coverage.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/genome.h"
#include "src/fuzz/harness.h"
#include "src/fuzz/repro.h"

namespace hlrc {
namespace fuzz {
namespace {

FuzzInput SeedInput(wkld::SynthPattern pattern, uint64_t seed) {
  FuzzInput in;
  in.workload = SeedWorkload(pattern, 4, 512, 1 << 20, seed);
  in.schedule.seed = seed * 101 + 7;
  in.schedule.max_jitter = Micros(150);
  return in;
}

const std::vector<wkld::SynthPattern>& AllPatterns() {
  static const std::vector<wkld::SynthPattern> kAll = {
      wkld::SynthPattern::kSingleWriter,     wkld::SynthPattern::kMigratory,
      wkld::SynthPattern::kProducerConsumer, wkld::SynthPattern::kFalseSharing,
      wkld::SynthPattern::kHotspot,          wkld::SynthPattern::kReadMostly,
  };
  return kAll;
}

TEST(CoverageMap, SameRunSameEdges) {
  // The coverage signal must be a pure function of the input: re-running the
  // identical genome yields the identical point set and hit count.
  const FuzzInput in = SeedInput(wkld::SynthPattern::kMigratory, 3);
  HarnessConfig hc;
  CoverageMap a(1), b(1);
  const RunOutcome ra = RunGenome(in, hc, &a);
  const RunOutcome rb = RunGenome(in, hc, &b);
  EXPECT_TRUE(ra.ok);
  EXPECT_TRUE(rb.ok);
  EXPECT_GT(a.points(), 0u);
  EXPECT_EQ(a.points(), b.points());
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Report(), b.Report());
  EXPECT_EQ(ra.final_words, rb.final_words);
  EXPECT_EQ(ra.sim_time, rb.sim_time);
}

TEST(CoverageMap, MergeIsOrderIndependentAndCountsNovelty) {
  CoverageMap x(0), y(0), merged_xy(0), merged_yx(0);
  x.Cover(CoverageObserver::Domain::kMsgEdge, 1, 2);
  x.Cover(CoverageObserver::Domain::kSyncEpoch, 0, 3);
  y.Cover(CoverageObserver::Domain::kMsgEdge, 1, 2);  // Shared with x.
  y.Cover(CoverageObserver::Domain::kInterval, 2, 0);
  EXPECT_EQ(merged_xy.MergeNovel(x), 2);
  EXPECT_EQ(merged_xy.MergeNovel(y), 1);  // Only the interval point is new.
  EXPECT_EQ(merged_yx.MergeNovel(y), 2);
  EXPECT_EQ(merged_yx.MergeNovel(x), 1);
  EXPECT_EQ(merged_xy.Fingerprint(), merged_yx.Fingerprint());
  EXPECT_EQ(merged_xy.points(), 3u);
  EXPECT_EQ(merged_xy.MergeNovel(x), 0);  // Idempotent.
}

TEST(CoverageMap, SaltSeparatesProtocolPointSpaces) {
  CoverageMap hlrc(3), lrc(1);
  hlrc.Cover(CoverageObserver::Domain::kMsgEdge, 1, 2);
  lrc.Cover(CoverageObserver::Domain::kMsgEdge, 1, 2);
  CoverageMap aggregate(0);
  EXPECT_EQ(aggregate.MergeNovel(hlrc), 1);
  EXPECT_EQ(aggregate.MergeNovel(lrc), 1);  // Same tuple, distinct point.
  EXPECT_EQ(aggregate.points(), 2u);
}

TEST(Genome, MutationsPreserveSyncSkeletonAndTermination) {
  // Property test over many mutants: the sync-record subsequence of every
  // node stream is untouched (deadlock safety), streams stay kEnd-terminated
  // and kWrites-free, and accesses stay inside the shared arena.
  Rng rng(11);
  for (const wkld::SynthPattern pattern : AllPatterns()) {
    WorkloadGenome parent = SeedWorkload(pattern, 4, 512, 1 << 20, 5);
    for (int step = 0; step < 40; ++step) {
      const WorkloadGenome kid = MutateWorkload(parent, &rng);
      ASSERT_EQ(kid.nodes, parent.nodes);
      for (int n = 0; n < kid.nodes; ++n) {
        const auto& ps = parent.streams[static_cast<size_t>(n)];
        const auto& ks = kid.streams[static_cast<size_t>(n)];
        ASSERT_FALSE(ks.empty());
        EXPECT_EQ(ks.back().kind, wkld::Record::Kind::kEnd);
        std::vector<std::pair<int, int64_t>> psync, ksync;
        for (const wkld::Record& r : ps) {
          if (r.kind == wkld::Record::Kind::kLock ||
              r.kind == wkld::Record::Kind::kUnlock ||
              r.kind == wkld::Record::Kind::kBarrier) {
            psync.emplace_back(static_cast<int>(r.kind), r.sync_id);
          }
        }
        for (const wkld::Record& r : ks) {
          EXPECT_NE(r.kind, wkld::Record::Kind::kWrites);
          if (r.kind == wkld::Record::Kind::kLock ||
              r.kind == wkld::Record::Kind::kUnlock ||
              r.kind == wkld::Record::Kind::kBarrier) {
            ksync.emplace_back(static_cast<int>(r.kind), r.sync_id);
          }
          for (const AccessRange& ar : r.ranges) {
            EXPECT_GE(ar.addr, 0);
            EXPECT_GT(ar.bytes, 0);
            EXPECT_LE(ar.addr + ar.bytes, kid.shared_bytes);
          }
        }
        // Lock ids may be remapped globally, but the kind sequence and
        // barrier ids are invariant.
        ASSERT_EQ(psync.size(), ksync.size()) << "node " << n;
        for (size_t i = 0; i < psync.size(); ++i) {
          EXPECT_EQ(psync[i].first, ksync[i].first);
          if (psync[i].first == static_cast<int>(wkld::Record::Kind::kBarrier)) {
            EXPECT_EQ(psync[i].second, ksync[i].second);
          }
        }
      }
      parent = kid;  // Walk a mutation chain, not just one step.
    }
  }
}

TEST(Genome, MutatedInputsStayRunnable) {
  // Any mutant must execute cleanly under the unmutated protocol: no
  // deadlock, no oracle violation, no final-image mismatch.
  Rng rng(23);
  HarnessConfig hc;
  for (const wkld::SynthPattern pattern : AllPatterns()) {
    FuzzInput in = SeedInput(pattern, 9);
    for (int step = 0; step < 5; ++step) {
      in.workload = MutateWorkload(in.workload, &rng);
      in.schedule = MutateSchedule(in.schedule, &rng);
      const RunOutcome out = RunGenome(in, hc, nullptr);
      EXPECT_TRUE(out.ok) << wkld::SynthPatternName(pattern) << " step " << step
                          << ": " << (out.ok ? "" : out.violations.front());
    }
  }
}

TEST(Genome, HashDedupsIdenticalInputsAndSplitsMutants) {
  Rng rng(7);
  const FuzzInput a = SeedInput(wkld::SynthPattern::kHotspot, 1);
  FuzzInput b = a;
  EXPECT_EQ(HashInput(a), HashInput(b));
  std::set<uint64_t> hashes;
  hashes.insert(HashInput(a));
  int distinct = 0;
  for (int i = 0; i < 64; ++i) {
    FuzzInput kid = a;
    kid.workload = MutateWorkload(a.workload, &rng);
    kid.schedule = MutateSchedule(a.schedule, &rng);
    if (hashes.insert(HashInput(kid)).second) {
      ++distinct;
    }
  }
  // Mutation is stochastic, but near-all mutants must hash apart.
  EXPECT_GE(distinct, 56);
  // Schedule-only differences must also split the hash.
  b.schedule.seed ^= 1;
  EXPECT_NE(HashInput(a), HashInput(b));
}

TEST(Differential, CleanBuildHasNoCrossProtocolDivergence) {
  // Acceptance pin: on the unmutated build the four evaluated protocol
  // families produce identical final images and sync totals for every seed
  // pattern (and a mutated child of each).
  const std::vector<ProtocolKind> cross = {ProtocolKind::kLrc, ProtocolKind::kErc,
                                           ProtocolKind::kHlrc, ProtocolKind::kAurc};
  HarnessConfig hc;
  Rng rng(31);
  for (const wkld::SynthPattern pattern : AllPatterns()) {
    FuzzInput in = SeedInput(pattern, 13);
    for (int step = 0; step < 2; ++step) {
      CoverageMap aggregate(0);
      const DifferentialResult diff = RunDifferential(in, hc, cross, &aggregate);
      EXPECT_FALSE(diff.diverged)
          << wkld::SynthPatternName(pattern) << ": "
          << (diff.reports.empty() ? "" : diff.reports.front());
      EXPECT_EQ(diff.runs, 4);
      EXPECT_GT(aggregate.points(), 0u);
      in.workload = MutateWorkload(in.workload, &rng);
    }
  }
}

FuzzConfig CanaryConfig(TestMutation mutation) {
  FuzzConfig cfg;
  cfg.seed = 7;
  cfg.budget = 10000;  // Pinned canary budget (ISSUE 7 acceptance).
  cfg.harness.mutation = mutation;
  return cfg;
}

TEST(Fuzzer, FindsHlrcSkipDiffApplyCanary) {
  Fuzzer fuzzer(CanaryConfig(TestMutation::kHlrcSkipDiffApply));
  const FuzzResult r = fuzzer.Run();
  ASSERT_TRUE(r.found_failure);
  EXPECT_LE(r.stats.executions, 10000);
  EXPECT_FALSE(r.violation.empty());
  // The minimized repro must replay to the same violation, deterministically.
  EXPECT_EQ(ReplayRepro(r.repro), r.violation);
  EXPECT_EQ(ReplayRepro(r.repro), r.violation);
}

TEST(Fuzzer, FindsLrcSkipInvalidateCanaryViaDifferential) {
  // kLrcSkipInvalidate only fires under LRC/OLRC; with HLRC as the primary
  // it is reachable exclusively through the differential harness.
  Fuzzer fuzzer(CanaryConfig(TestMutation::kLrcSkipInvalidate));
  const FuzzResult r = fuzzer.Run();
  ASSERT_TRUE(r.found_failure);
  EXPECT_FALSE(r.repro.cross.empty());
  EXPECT_EQ(ReplayRepro(r.repro), r.violation);
}

TEST(Fuzzer, GuidedBeatsUniformRandomAtEqualBudget) {
  // Acceptance pin: with the corpus frozen at the six seed genomes
  // (feedback off) the same mutation machinery reaches strictly fewer
  // coverage points than the coverage-guided session at the same budget.
  FuzzConfig guided;
  guided.seed = 5;
  guided.budget = 10000;
  guided.jobs = 4;
  FuzzConfig random = guided;
  random.feedback = false;
  const FuzzResult rg = Fuzzer(guided).Run();
  const FuzzResult rr = Fuzzer(random).Run();
  EXPECT_FALSE(rg.found_failure);
  EXPECT_FALSE(rr.found_failure);
  EXPECT_EQ(rr.stats.corpus_size, 6);
  EXPECT_GT(rg.stats.corpus_size, 6);
  EXPECT_GT(rg.coverage_points, rr.coverage_points);
}

TEST(Fuzzer, SessionIsJobCountIndependent) {
  FuzzConfig cfg;
  cfg.seed = 19;
  cfg.budget = 600;
  cfg.jobs = 1;
  const FuzzResult serial = Fuzzer(cfg).Run();
  cfg.jobs = 4;
  const FuzzResult parallel = Fuzzer(cfg).Run();
  EXPECT_EQ(serial.stats.executions, parallel.stats.executions);
  EXPECT_EQ(serial.stats.corpus_size, parallel.stats.corpus_size);
  EXPECT_EQ(serial.stats.novel_inputs, parallel.stats.novel_inputs);
  EXPECT_EQ(serial.coverage_points, parallel.coverage_points);
  EXPECT_EQ(serial.coverage_report, parallel.coverage_report);
}

TEST(Fuzzer, CorpusHashesAreUnique) {
  FuzzConfig cfg;
  cfg.seed = 29;
  cfg.budget = 800;
  Fuzzer fuzzer(cfg);
  fuzzer.Run();
  std::set<uint64_t> hashes;
  for (const FuzzInput& in : fuzzer.corpus()) {
    EXPECT_TRUE(hashes.insert(HashInput(in)).second) << "duplicate corpus entry";
  }
  EXPECT_GE(fuzzer.corpus().size(), 6u);
}

TEST(Repro, SerializationRoundTripsExactly) {
  Rng rng(41);
  ReproFile repro;
  repro.input = SeedInput(wkld::SynthPattern::kFalseSharing, 17);
  repro.input.workload = MutateWorkload(repro.input.workload, &rng);
  repro.input.schedule.prefix = {3, 1, 4, 1, 5};
  repro.config.protocol = ProtocolKind::kAurc;
  repro.config.mutation = TestMutation::kHlrcSkipDiffApply;
  repro.config.migrate_homes = true;
  repro.config.fault.drop_prob = 0.25;
  repro.config.fault.seed = 99;
  repro.cross = {ProtocolKind::kLrc, ProtocolKind::kHlrc};
  repro.violation = "final-image: word 3 mismatch\nsecond line";
  const std::string text = SerializeRepro(repro);
  ReproFile back;
  std::string error;
  ASSERT_TRUE(ParseRepro(text, &back, &error)) << error;
  // Newlines in the violation are flattened; everything else is exact.
  EXPECT_EQ(SerializeRepro(back), text);
  EXPECT_EQ(back.config.protocol, ProtocolKind::kAurc);
  EXPECT_EQ(back.config.mutation, TestMutation::kHlrcSkipDiffApply);
  EXPECT_TRUE(back.config.migrate_homes);
  EXPECT_DOUBLE_EQ(back.config.fault.drop_prob, 0.25);
  EXPECT_EQ(back.input.schedule.prefix, repro.input.schedule.prefix);
  EXPECT_EQ(back.input.workload.streams, repro.input.workload.streams);
  EXPECT_EQ(HashInput(back.input), HashInput(repro.input));
}

TEST(Repro, ParserRejectsMalformedFiles) {
  ReproFile repro;
  repro.input = SeedInput(wkld::SynthPattern::kSingleWriter, 2);
  const std::string good = SerializeRepro(repro);
  ReproFile out;
  std::string error;
  EXPECT_FALSE(ParseRepro("not a repro\n", &out, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos);
  // Truncation (no 'end') must be rejected, not half-applied.
  EXPECT_FALSE(ParseRepro(good.substr(0, good.size() / 2), &out, &error));
  std::string tampered = good;
  const size_t pos = tampered.find("protocol ");
  tampered.replace(pos, 9, "protokol ");
  EXPECT_FALSE(ParseRepro(tampered, &out, &error));
}

}  // namespace
}  // namespace fuzz
}  // namespace hlrc
