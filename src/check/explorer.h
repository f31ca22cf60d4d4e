// Seeded schedule exploration (docs/CHECKING.md).
//
// RunOne builds a small simulated machine, runs one litmus program
// (src/apps/litmus.h) under one protocol with the LRC oracle attached, and
// perturbs the schedule from a SplitMix64 seed through two hooks:
//
//   * Engine::SetTieBreaker — a random rank per scheduled event permutes the
//     execution order of simultaneous events (coroutine resumptions, message
//     handlers, timer callbacks);
//   * Network::SetDeliveryJitterHook — a random extra head-arrival delay per
//     physical transmission races protocol messages bound for different
//     destinations against each other (per-destination FIFO, which the
//     protocols rely on, is preserved by the receiving-NIC serialization).
//
// Both hooks draw from one decision stream. A failing run is reproduced by
// its (seed, decision_limit) pair alone: decisions past the limit fall back
// to the deterministic defaults, and Minimize binary-searches the shortest
// prefix of chaos decisions that still fails — the printed trace is the
// whole schedule perturbation. Fault plans (src/fault) and the reliable
// channel compose underneath, and TestMutation seeds known protocol bugs for
// checker regression tests.
#ifndef SRC_CHECK_EXPLORER_H_
#define SRC_CHECK_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/check/oracle.h"
#include "src/common/types.h"
#include "src/fault/fault_plan.h"
#include "src/net/reliable_channel.h"
#include "src/proto/options.h"

namespace hlrc {

struct CheckConfig {
  std::string litmus = "message-passing";
  ProtocolKind protocol = ProtocolKind::kHlrc;
  int nodes = 4;
  int rounds = 3;
  uint64_t seed = 1;

  // Chaos knobs.
  bool permute_tasks = true;         // Random tiebreak among same-time events.
  SimTime max_jitter = Micros(150);  // 0 disables delivery jitter.
  // Chaos decisions past this index use the deterministic defaults
  // (tiebreak 0, jitter 0). Minimize shrinks it; sweeps leave it unlimited.
  uint64_t decision_limit = std::numeric_limits<uint64_t>::max();

  // Composition with src/fault: an Active() plan makes the fabric lossy
  // (its seed is derived from `seed` when left at the 0 sentinel).
  FaultPlan fault = [] {
    FaultPlan p;
    p.seed = 0;
    return p;
  }();
  ReliabilityConfig reliability;
  TestMutation mutation = TestMutation::kNone;

  // Coalesced wire plane (NetworkConfig::coalesce: frame packing, request
  // combining, and piggybacked acks whenever reliability is enabled too) and
  // the combining barrier tree, so sweeps can hammer the coalesced paths
  // with the same chaos.
  bool coalesce = false;
  int barrier_arity = 0;

  // Small machine: litmus programs touch a handful of pages, and a small
  // page keeps diff traffic and sweep wall-time low.
  int64_t page_size = 512;
  int64_t shared_bytes = 1 << 20;
};

// One chaos decision, for trace printing. kind 'T' = event tiebreak rank,
// 'J' = delivery jitter (value in nanoseconds of extra delay).
struct ChaosDecision {
  uint64_t index = 0;
  char kind = '?';
  uint64_t value = 0;
};

struct CheckResult {
  bool ok = true;
  std::vector<OracleViolation> violations;
  uint64_t decisions_used = 0;  // Chaos decisions requested by the run.
  std::vector<ChaosDecision> trace;  // First decisions, up to a cap.
  int64_t reads_checked = 0;
  int64_t writes_recorded = 0;
  SimTime sim_time = 0;
  int64_t events = 0;
};

// Runs one (litmus, protocol, seed) execution under the oracle.
CheckResult RunOne(const CheckConfig& config);

struct SweepResult {
  int runs = 0;
  int failures = 0;
  bool found_failure = false;
  uint64_t first_failing_seed = 0;
  int64_t reads_checked = 0;
  int64_t writes_recorded = 0;
};

// Runs `seeds` explorations with seeds first_seed, first_seed+1, ...;
// `on_failure` (optional) is invoked for each failing seed, in seed order.
// `jobs` > 1 runs the seeds on that many worker threads (src/sim/sweep.h);
// every RunOne is an isolated System, so the aggregated result — and the
// order of on_failure callbacks — is identical at any job count.
// `stop_on_failure` ends the sweep at its first failing seed: on one job the
// later seeds never run; in parallel they run and the aggregation truncates.
SweepResult Sweep(const CheckConfig& base, uint64_t first_seed, int seeds,
                  const std::function<void(uint64_t, const CheckResult&)>& on_failure = {},
                  int jobs = 1, bool stop_on_failure = false);

// Shrinks a failing run to the shortest chaos-decision prefix that still
// fails (binary search on decision_limit; a mutation-induced failure that
// needs no chaos at all minimizes to limit 0). The returned config replays
// the minimized schedule exactly.
struct MinimizedSchedule {
  CheckConfig config;
  CheckResult result;
};
MinimizedSchedule Minimize(const CheckConfig& failing);

}  // namespace hlrc

#endif  // SRC_CHECK_EXPLORER_H_
