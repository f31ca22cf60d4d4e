// Coverage-guided protocol fuzzer (docs/FUZZING.md).
//
// The session loop:
//
//   1. Seed the corpus with tiny genomes of all six synthetic sharing
//      patterns (src/wkld/synth.h), one schedule genome each.
//   2. Draw a batch of mutants (parent picked from the corpus, workload
//      and/or schedule mutated), execute them under the primary protocol in
//      parallel (src/sim/sweep.h), and merge the per-run coverage maps into
//      the aggregate in slot order — so corpus growth, stats and the final
//      coverage map are bit-identical at any --jobs count.
//   3. An input whose coverage contains points the aggregate has never seen
//      is coverage-novel: it joins the corpus (when feedback is on) and is
//      additionally replayed through the differential cross-protocol
//      harness.
//   4. Any oracle violation, final-image mismatch or cross-protocol
//      divergence stops the session: the input is minimized (workload
//      record removal + schedule-prefix truncation, re-checking the failure
//      after each step) and serialized as a self-contained repro file.
//
// With feedback off the same machinery runs as a uniform random sweep over
// the seed genomes — the control arm for the guided-vs-random coverage
// comparison pinned in tests/test_fuzz.cc.
#ifndef SRC_FUZZ_FUZZER_H_
#define SRC_FUZZ_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fuzz/coverage.h"
#include "src/fuzz/genome.h"
#include "src/fuzz/harness.h"
#include "src/fuzz/repro.h"

namespace hlrc {
namespace fuzz {

struct FuzzConfig {
  uint64_t seed = 1;
  // Total harness executions (seed runs, mutants and differential replays
  // all count). The session stops when the budget is spent.
  int budget = 1000;
  int jobs = 1;
  int batch = 16;

  // Machine shape for every run (litmus-scale keeps runs cheap; the
  // schedule and mutations do the exploring).
  int nodes = 4;
  int64_t page_size = 512;
  int64_t shared_bytes = 1 << 20;
  SimTime max_jitter = Micros(150);

  // What every run, failure repro and corpus entry uses: the primary
  // protocol fuzzed directly, a seeded protocol bug for canary regressions
  // (tests/test_fuzz.cc, CI) and an optional fault plan under every run.
  HarnessConfig harness;
  // Differential set; the first entry is the reference image.
  std::vector<ProtocolKind> cross = {ProtocolKind::kLrc, ProtocolKind::kErc,
                                     ProtocolKind::kHlrc, ProtocolKind::kAurc};

  bool feedback = true;      // Coverage-guided corpus growth.
  bool differential = true;  // Cross-protocol replay of novel inputs.

  // Wall-clock bound for CI smoke sessions; 0 = none. Checked between
  // batches only, so results up to the stopping point stay deterministic.
  double max_seconds = 0.0;

  // Extra executions the minimizer may spend shrinking a failure.
  int minimize_budget = 200;
};

struct FuzzStats {
  int executions = 0;
  int batches = 0;
  int corpus_size = 0;
  int novel_inputs = 0;
  int differential_runs = 0;
};

struct FuzzResult {
  bool found_failure = false;
  std::string violation;  // First (minimized) violation description.
  ReproFile repro;        // Valid when found_failure.
  FuzzStats stats;
  size_t coverage_points = 0;
  int64_t coverage_hits = 0;
  std::string coverage_report;
};

class Fuzzer {
 public:
  explicit Fuzzer(const FuzzConfig& config);

  // Runs one session to budget exhaustion, wall-clock bound or first
  // failure. Deterministic for a given config when max_seconds is 0.
  FuzzResult Run();

  // Post-Run inspection (corpus entries in discovery order; aggregate map).
  const std::vector<FuzzInput>& corpus() const { return corpus_; }
  const CoverageMap& coverage() const { return coverage_; }

 private:
  // Executes `inputs` in parallel under the primary protocol, then folds
  // results in slot order. Returns the first failing description, if any.
  struct Processed {
    bool failed = false;
    FuzzInput failing;
    std::string violation;
    bool differential = false;  // Failure came from the differential harness.
  };
  Processed ExecuteBatch(const std::vector<FuzzInput>& inputs);
  // Re-checks a candidate during minimization; empty string = passes.
  std::string Check(const FuzzInput& input, bool differential, int* spent);
  FuzzInput MinimizeInput(const FuzzInput& failing, bool differential,
                          std::string* violation);

  FuzzConfig config_;
  Rng rng_;
  CoverageMap coverage_;
  std::vector<FuzzInput> corpus_;
  std::vector<uint64_t> corpus_hashes_;
  FuzzStats stats_;
};

}  // namespace fuzz
}  // namespace hlrc

#endif  // SRC_FUZZ_FUZZER_H_
