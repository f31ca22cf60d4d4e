// Fuzzing execution harness (docs/FUZZING.md).
//
// RunGenome executes one FuzzInput on an isolated simulated machine under
// one protocol:
//
//   * The workload genome's record streams replay word-granularly through
//     NodeContext::LoadWord / StoreWord, so every shared read is validated
//     online by the LRC oracle (src/check/oracle.h). Stores use globally
//     unique values — (node, per-node op counter) encoded in the word — so
//     the oracle identifies the originating write of every read exactly.
//   * The schedule genome drives the engine tie-breaker and the network
//     delivery-jitter hook through a prefix-pinned decision stream.
//   * After the streams, all nodes pass a final barrier and node 0 reads
//     back a deterministic sample of single-writer words. Under any release-
//     consistent execution the final barrier orders every write before these
//     reads, so each must return its writer's program-order-last value; the
//     values double as the final-memory-image vector the differential
//     harness compares across protocols.
//
// RunDifferential replays the same input under several protocols and diffs
// the final images plus the protocol-independent totals (application-level
// lock acquires and barriers). Traffic and timing differ across protocols
// by design and are never compared.
#ifndef SRC_FUZZ_HARNESS_H_
#define SRC_FUZZ_HARNESS_H_

#include <string>
#include <vector>

#include "src/common/coverage.h"
#include "src/fault/fault_plan.h"
#include "src/fuzz/coverage.h"
#include "src/fuzz/genome.h"
#include "src/proto/options.h"

namespace hlrc {
namespace fuzz {

struct HarnessConfig {
  ProtocolKind protocol = ProtocolKind::kHlrc;
  TestMutation mutation = TestMutation::kNone;
  bool permute_tasks = true;
  HomePolicy home_policy = HomePolicy::kBlock;
  bool migrate_homes = false;
  // An Active() plan makes the fabric lossy, and with it turns on reliable
  // delivery (SimConfig::Reliable()).
  FaultPlan fault = [] {
    FaultPlan p;
    p.seed = 0;  // 0 sentinel: derived from the schedule seed.
    return p;
  }();
};

struct RunOutcome {
  bool ok = true;
  // Oracle violations and final-image mismatches, human-readable.
  std::vector<std::string> violations;
  // Checked single-writer words: address + final value read by node 0.
  std::vector<GlobalAddr> final_addrs;
  std::vector<uint64_t> final_words;
  // Protocol-independent totals (must match across protocols).
  int64_t lock_acquires = 0;
  int64_t barriers = 0;
  int64_t reads_checked = 0;
  uint64_t decisions_used = 0;
  SimTime sim_time = 0;
};

// Runs one input under one protocol. `cov` (optional) receives the run's
// protocol-state coverage points.
RunOutcome RunGenome(const FuzzInput& input, const HarnessConfig& config,
                     CoverageObserver* cov);

struct DifferentialResult {
  bool diverged = false;
  std::vector<std::string> reports;
  int runs = 0;
};

// Replays `input` under every protocol in `protocols` (first entry is the
// reference) and diffs outcomes. Per-run coverage is merged into
// `aggregate` when non-null, salted by protocol kind.
DifferentialResult RunDifferential(const FuzzInput& input, const HarnessConfig& base,
                                   const std::vector<ProtocolKind>& protocols,
                                   CoverageMap* aggregate);

}  // namespace fuzz
}  // namespace hlrc

#endif  // SRC_FUZZ_HARNESS_H_
