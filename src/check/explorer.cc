#include "src/check/explorer.h"

#include <algorithm>
#include <utility>

#include "src/apps/litmus.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/sim/sweep.h"
#include "src/svm/system.h"

namespace hlrc {
namespace {

constexpr size_t kTraceCap = 64;

}  // namespace

void ChaosStream::Install(System& sys, bool permute_tasks) {
  if (permute_tasks) {
    sys.engine().SetTieBreaker([this] { return Tiebreak(); });
  }
  if (max_jitter_ > 0) {
    sys.network().SetDeliveryJitterHook([this](NodeId, NodeId, MsgType) { return Jitter(); });
  }
}

bool ChaosStream::Next(uint64_t* raw) {
  if (count_ >= limit_) {
    ++count_;
    return false;
  }
  *raw = prefix_ != nullptr && count_ < prefix_->size() ? (*prefix_)[count_] : rng_.NextU64();
  return true;
}

uint64_t ChaosStream::Tiebreak() {
  uint64_t v = 0;
  if (Next(&v)) {
    Record('T', v);
  }
  return v;
}

SimTime ChaosStream::Jitter() {
  uint64_t v = 0;
  if (Next(&v)) {
    v %= static_cast<uint64_t>(max_jitter_) + 1;
    Record('J', v);
  }
  return static_cast<SimTime>(v);
}

void ChaosStream::Record(char kind, uint64_t value) {
  if (trace_.size() < kTraceCap) {
    trace_.push_back(ChaosDecision{count_, kind, value});
  }
  ++count_;
}

CheckResult RunOne(const CheckConfig& config) {
  SimConfig sim = config.sim;
  if (sim.fault.Active() && sim.fault.seed == 0) {
    // Derive the injector's seed from the run seed so every explored seed
    // also explores a different loss pattern.
    sim.fault.seed = Rng(sim.seed).NextU64();
  }

  LitmusConfig lcfg;
  lcfg.nodes = sim.nodes;
  lcfg.rounds = config.rounds;
  lcfg.seed = sim.seed;
  std::unique_ptr<LitmusTest> litmus = MakeLitmus(config.litmus, lcfg);

  System sys(sim);
  litmus->Setup(sys);

  LrcOracle oracle(sim.nodes);
  sys.SetAccessObserver(&oracle);

  ChaosStream chaos(sim.seed, config.max_jitter, config.decision_limit);
  chaos.Install(sys, config.permute_tasks);

  sys.Run(litmus->Program());

  CheckResult result;
  result.ok = oracle.ok();
  result.violations = oracle.violations();
  result.decisions_used = chaos.count();
  result.trace = std::move(chaos).trace();
  result.reads_checked = oracle.reads_checked();
  result.writes_recorded = oracle.writes_recorded();
  result.sim_time = sys.report().total_time;
  result.events = sys.engine().events_processed();
  return result;
}

SweepResult Sweep(const CheckConfig& base, uint64_t first_seed, int seeds,
                  const std::function<void(uint64_t, const CheckResult&)>& on_failure,
                  int jobs, bool stop_on_failure) {
  SweepResult sweep;
  if (seeds <= 0) {
    return sweep;
  }
  auto run = [&base, first_seed](int i) {
    CheckConfig cfg = base;
    cfg.sim.seed = first_seed + static_cast<uint64_t>(i);
    return RunOne(cfg);
  };
  std::vector<CheckResult> results;
  if (jobs <= 1 && stop_on_failure) {
    for (int i = 0; i < seeds && (results.empty() || results.back().ok); ++i) {
      results.push_back(run(i));
    }
  } else {
    results = ParallelMap<CheckResult>(seeds, jobs, run);
  }
  // Aggregation (and failure reporting) walks results in seed order, so the
  // outcome is byte-identical to the historical serial loop.
  for (size_t i = 0; i < results.size(); ++i) {
    const CheckResult& r = results[i];
    const uint64_t seed = first_seed + static_cast<uint64_t>(i);
    ++sweep.runs;
    sweep.reads_checked += r.reads_checked;
    sweep.writes_recorded += r.writes_recorded;
    if (!r.ok) {
      ++sweep.failures;
      if (!sweep.found_failure) {
        sweep.found_failure = true;
        sweep.first_failing_seed = seed;
      }
      if (on_failure) {
        on_failure(seed, r);
      }
      if (stop_on_failure) {
        break;
      }
    }
  }
  return sweep;
}

MinimizedSchedule Minimize(const CheckConfig& failing) {
  CheckConfig cfg = failing;
  CheckResult full = RunOne(cfg);
  if (full.ok) {
    // Not reproducible under this config — return the (passing) run and let
    // the caller report it.
    return MinimizedSchedule{cfg, std::move(full)};
  }

  cfg.decision_limit = 0;
  CheckResult at_zero = RunOne(cfg);
  if (!at_zero.ok) {
    // Fails with no chaos at all (typically a seeded mutation).
    return MinimizedSchedule{cfg, std::move(at_zero)};
  }

  // Invariant: fails at `hi`, passes at `lo`. Failure is not monotone in the
  // prefix length, but the search still lands on a boundary where limit L
  // fails and L-1 passes — a minimal reproducible prefix.
  uint64_t lo = 0;
  uint64_t hi = std::min(failing.decision_limit, full.decisions_used);
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    cfg.decision_limit = mid;
    if (RunOne(cfg).ok) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  cfg.decision_limit = hi;
  CheckResult minimized = RunOne(cfg);
  HLRC_CHECK(!minimized.ok);
  return MinimizedSchedule{cfg, std::move(minimized)};
}

}  // namespace hlrc
