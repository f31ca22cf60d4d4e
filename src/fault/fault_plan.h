// Declarative fault plans for the simulated interconnect.
//
// A FaultPlan describes, deterministically, how the fabric misbehaves during
// a run: per-frame probabilistic faults (drop / duplicate / delay /
// corrupt-and-drop) plus scheduled link-partition windows between node sets.
// The plan is pure data; src/fault/fault_injector.h executes it.
// All randomness comes from one explicit SplitMix64 seed — no wall-clock, no
// global state — so a plan replays bit-identically (docs/FAULTS.md).
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace hlrc {

// While now is in [start, end), frames between group_a and group_b (either
// direction) are dropped deterministically. An empty group_b means "every
// node not in group_a" (a clean network split).
struct PartitionWindow {
  std::vector<NodeId> group_a;
  std::vector<NodeId> group_b;
  SimTime start = 0;
  SimTime end = std::numeric_limits<SimTime>::max();
};

struct FaultPlan {
  // Root seed of the injector's private Rng.
  uint64_t seed = 42;

  // Per-frame probabilities, evaluated in this order; at most one fires.
  double drop_prob = 0.0;     // Lost in the network.
  double corrupt_prob = 0.0;  // Delivered bytes, discarded at the receiver.
  double dup_prob = 0.0;      // Delivered twice (requires reliable delivery).
  double delay_prob = 0.0;    // Head arrival delayed by uniform [delay_min, delay_max].
  SimTime delay_min = Micros(50);
  SimTime delay_max = Millis(2);

  std::vector<PartitionWindow> partitions;

  // True if this plan can affect any frame at all.
  bool Active() const {
    return drop_prob > 0 || corrupt_prob > 0 || dup_prob > 0 || delay_prob > 0 ||
           !partitions.empty();
  }
};

// Parses the CLI partition grammar `a-b@t0..t1`:
//   group:  comma-separated node ids, e.g. `0,1,2`
//   spec:   <group_a>-<group_b>@<t0>..<t1>  with times in milliseconds of
//           virtual time (decimals allowed); group_b may be empty
//           (`0-@5..10` splits node 0 from everyone else).
// Examples: `0,1-2,3@5..10`, `0-@0..2.5`.
// Returns false and fills *error on malformed input.
bool ParsePartitionSpec(const std::string& spec, PartitionWindow* out, std::string* error);

// One-line human-readable plan summary for run headers.
std::string FaultPlanSummary(const FaultPlan& plan);

}  // namespace hlrc

#endif  // SRC_FAULT_FAULT_PLAN_H_
