#include "src/fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>

#include "src/common/check.h"
#include "src/sim/sweep.h"

namespace hlrc {
namespace fuzz {
namespace {

constexpr int kSeedPatterns = static_cast<int>(wkld::SynthPattern::kReadMostly) + 1;

// Strips one contiguous run of records from a node's stream (minimizer
// candidate). Sync records are never removed — the per-node barrier
// sequences and lock pairing must survive minimization just as they
// survive mutation.
bool RemovableRun(const std::vector<wkld::Record>& stream, size_t begin, size_t len) {
  for (size_t i = begin; i < begin + len && i < stream.size(); ++i) {
    const wkld::Record::Kind k = stream[i].kind;
    if (k != wkld::Record::Kind::kCompute && k != wkld::Record::Kind::kAccess &&
        k != wkld::Record::Kind::kPhase) {
      return false;
    }
  }
  return begin + len <= stream.size();
}

}  // namespace

Fuzzer::Fuzzer(const FuzzConfig& config)
    : config_(config), rng_(config.seed), coverage_(0) {
  HLRC_CHECK_MSG(config_.budget > 0, "fuzz budget must be positive");
  HLRC_CHECK_MSG(config_.batch > 0, "fuzz batch must be positive");
  HLRC_CHECK_MSG(config_.nodes >= 2, "fuzzing needs at least two nodes");
}

Fuzzer::Processed Fuzzer::ExecuteBatch(const std::vector<FuzzInput>& inputs) {
  struct Slot {
    RunOutcome outcome;
    CoverageMap cov;
  };
  const int count = static_cast<int>(inputs.size());
  std::vector<Slot> slots = ParallelMap<Slot>(count, config_.jobs, [&](int i) {
    Slot s;
    s.cov = CoverageMap(static_cast<uint64_t>(config_.harness.protocol) + 1);
    s.outcome = RunGenome(inputs[static_cast<size_t>(i)], config_.harness, &s.cov);
    return s;
  });
  ++stats_.batches;

  // Fold in slot order: corpus growth, stats and the aggregate map are
  // bit-identical at any --jobs count.
  Processed pr;
  for (int i = 0; i < count; ++i) {
    const FuzzInput& input = inputs[static_cast<size_t>(i)];
    const Slot& slot = slots[static_cast<size_t>(i)];
    ++stats_.executions;
    const int64_t novel = coverage_.MergeNovel(slot.cov);
    if (!slot.outcome.ok) {
      pr.failed = true;
      pr.failing = input;
      pr.violation = slot.outcome.violations.front();
      pr.differential = false;
      return pr;
    }
    if (novel <= 0) {
      continue;
    }
    ++stats_.novel_inputs;
    if (config_.feedback) {
      const uint64_t hash = HashInput(input);
      if (std::find(corpus_hashes_.begin(), corpus_hashes_.end(), hash) ==
          corpus_hashes_.end()) {
        corpus_.push_back(input);
        corpus_hashes_.push_back(hash);
      }
    }
    if (config_.differential && !config_.cross.empty() &&
        stats_.executions + static_cast<int>(config_.cross.size()) <= config_.budget) {
      const DifferentialResult diff =
          RunDifferential(input, config_.harness, config_.cross, &coverage_);
      stats_.executions += diff.runs;
      stats_.differential_runs += diff.runs;
      if (diff.diverged) {
        pr.failed = true;
        pr.failing = input;
        pr.violation = diff.reports.front();
        pr.differential = true;
        return pr;
      }
    }
  }
  return pr;
}

std::string Fuzzer::Check(const FuzzInput& input, bool differential, int* spent) {
  const RunOutcome out = RunGenome(input, config_.harness, nullptr);
  *spent += 1;
  if (!out.ok) {
    return out.violations.front();
  }
  if (differential && !config_.cross.empty()) {
    const DifferentialResult diff =
        RunDifferential(input, config_.harness, config_.cross, nullptr);
    *spent += diff.runs;
    if (diff.diverged) {
      return diff.reports.front();
    }
  }
  return "";
}

FuzzInput Fuzzer::MinimizeInput(const FuzzInput& failing, bool differential,
                                std::string* violation) {
  FuzzInput cur = failing;
  int spent = 0;

  // Workload: greedy ddmin-lite over each node's mutable records — try
  // removing runs of shrinking length, keep any candidate that still fails.
  for (int node = 0; node < cur.workload.nodes && spent < config_.minimize_budget;
       ++node) {
    const size_t node_idx = static_cast<size_t>(node);
    size_t len = std::max<size_t>(cur.workload.streams[node_idx].size() / 2, 1);
    for (;;) {
      size_t begin = 0;
      while (begin + len < cur.workload.streams[node_idx].size() &&
             spent < config_.minimize_budget) {
        if (!RemovableRun(cur.workload.streams[node_idx], begin, len)) {
          ++begin;
          continue;
        }
        FuzzInput candidate = cur;
        std::vector<wkld::Record>& cs = candidate.workload.streams[node_idx];
        cs.erase(cs.begin() + static_cast<int64_t>(begin),
                 cs.begin() + static_cast<int64_t>(begin + len));
        const std::string v = Check(candidate, differential, &spent);
        if (!v.empty()) {
          cur = std::move(candidate);
          *violation = v;
          // Keep `begin` in place: the stream shrank under it.
        } else {
          ++begin;
        }
      }
      if (len <= 1 || spent >= config_.minimize_budget) {
        break;
      }
      len /= 2;
    }
  }

  // Schedule: try dropping the pinned prefix entirely, then trailing halves.
  while (!cur.schedule.prefix.empty() && spent < config_.minimize_budget) {
    FuzzInput candidate = cur;
    const size_t keep = candidate.schedule.prefix.size() / 2;
    candidate.schedule.prefix.resize(keep);
    const std::string v = Check(candidate, differential, &spent);
    if (v.empty()) {
      break;
    }
    cur = candidate;
    *violation = v;
    if (keep == 0) {
      break;
    }
  }
  return cur;
}

FuzzResult Fuzzer::Run() {
  const auto start = std::chrono::steady_clock::now();
  const auto time_up = [&]() {
    if (config_.max_seconds <= 0.0) {
      return false;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= config_.max_seconds;
  };

  // Seed genomes: all six sharing patterns, one schedule each. Seeds are
  // corpus members unconditionally — with feedback off the corpus stays
  // exactly this set and the session is a uniform random sweep over it.
  std::vector<FuzzInput> seeds;
  seeds.reserve(kSeedPatterns);
  for (int p = 0; p < kSeedPatterns; ++p) {
    FuzzInput in;
    in.workload =
        SeedWorkload(static_cast<wkld::SynthPattern>(p), config_.nodes,
                     config_.page_size, config_.shared_bytes,
                     config_.seed + static_cast<uint64_t>(p));
    in.schedule.seed = rng_.NextU64();
    in.schedule.max_jitter = config_.max_jitter;
    seeds.push_back(in);
  }
  for (const FuzzInput& in : seeds) {
    corpus_.push_back(in);
    corpus_hashes_.push_back(HashInput(in));
  }

  FuzzResult result;
  Processed failure = ExecuteBatch(seeds);
  while (!failure.failed && stats_.executions < config_.budget && !time_up()) {
    const int remaining = config_.budget - stats_.executions;
    const int n = std::min(config_.batch, remaining);
    std::vector<FuzzInput> mutants;
    mutants.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const FuzzInput& parent =
          corpus_[static_cast<size_t>(rng_.NextBounded(corpus_.size()))];
      FuzzInput kid = parent;
      bool mutate_workload = rng_.NextBool(0.7);
      const bool mutate_schedule = rng_.NextBool(0.7);
      if (!mutate_workload && !mutate_schedule) {
        mutate_workload = true;
      }
      if (mutate_workload) {
        kid.workload = MutateWorkload(parent.workload, &rng_);
      }
      if (mutate_schedule) {
        kid.schedule = MutateSchedule(parent.schedule, &rng_);
      }
      mutants.push_back(std::move(kid));
    }
    failure = ExecuteBatch(mutants);
  }

  if (failure.failed) {
    result.found_failure = true;
    result.violation = failure.violation;
    FuzzInput minimized =
        MinimizeInput(failure.failing, failure.differential, &result.violation);
    result.repro.input = std::move(minimized);
    result.repro.config = config_.harness;
    if (failure.differential) {
      result.repro.cross = config_.cross;
    }
    result.repro.violation = result.violation;
  }

  stats_.corpus_size = static_cast<int>(corpus_.size());
  result.stats = stats_;
  result.coverage_points = coverage_.points();
  result.coverage_hits = coverage_.hits();
  result.coverage_report = coverage_.Report();
  return result;
}

}  // namespace fuzz
}  // namespace hlrc
