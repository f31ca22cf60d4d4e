// svmcheck — schedule-exploration driver for the consistency checker
// (src/check, docs/CHECKING.md).
//
// Sweeps seeded schedule perturbations of the litmus programs under the
// selected protocols, validating every shared read against the LRC oracle.
// On a violation it shrinks the failing schedule to the shortest chaos
// prefix that still fails and prints the (seed, decision-limit) pair that
// replays it.
//
//   svmcheck                                  # all litmus x all protocols
//   svmcheck --litmus=message-passing --protocols=hlrc --seeds=1000
//   svmcheck --mutation=hlrc-skip-diff-apply  # prove the oracle has teeth
//   svmcheck --replay-seed=17 --limit=42 --litmus=lock-handoff --protocols=lrc
//
// The flag list is kTool's usage text below, the one copy `--help` prints.
//
// Exit status: 0 if every run satisfied the oracle, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/apps/litmus.h"
#include "src/check/explorer.h"
#include "src/common/cli.h"
#include "src/sim/sweep.h"
#include "src/svm/config.h"

namespace hlrc {
namespace {

struct Options {
  std::vector<std::string> litmus;
  std::vector<ProtocolKind> protocols;
  // What every (litmus, protocol, seed) run starts from; flags parse into it.
  CheckConfig base;
  int seeds = 100;
  uint64_t first_seed = 1;
  int jobs = 0;  // 0 = hardware concurrency.
  bool stop_on_failure = false;
  bool replay = false;
  uint64_t replay_seed = 0;
  bool limit_set = false;
  uint64_t limit = std::numeric_limits<uint64_t>::max();
};

const ToolInfo kTool = {
    "svmcheck",
    "Sweeps seeded schedule perturbations of the litmus programs under the\n"
    "selected protocols, validating every shared read against the LRC\n"
    "oracle; failing schedules are minimized to a replayable\n"
    "(seed, decision-limit) pair.",
    "  --litmus=LIST         comma-separated litmus names, or \"all\" (default)\n"
    "  --protocols=LIST      lrc | olrc | hlrc | ohlrc | erc | aurc, or \"all\"\n"
    "                        (default: lrc,erc,hlrc,aurc)\n"
    "  --seeds=N             seeds per (litmus, protocol) pair (default 100)\n"
    "  --seed=N              first seed of the sweep (default 1)\n"
    "  --jobs=N              worker threads per sweep (default: hardware\n"
    "                        concurrency; report is --jobs independent)\n"
    "  --nodes=N             node count (default 4)\n"
    "  --rounds=N            litmus rounds (default 3)\n"
    "  --page-size=BYTES     SVM page size (default 512)\n"
    "  --max-jitter-us=N     max per-message delivery jitter (default 150)\n"
    "  --no-permute          disable the same-time event permutation\n"
    "  --mutation=NAME       none | hlrc-skip-diff-apply | lrc-skip-invalidate\n"
    "  --fault-drop=P        compose with fault injection: drop probability\n"
    "  --coalesce            coalesced wire plane (frame packing, request\n"
    "                        combining, a 4-ary barrier tree; piggybacked acks\n"
    "                        with --fault-drop)\n"
    "  --stop-on-failure     stop a sweep at its first failing seed\n"
    "  --replay-seed=N       run exactly one seed (requires --limit)\n"
    "  --limit=N             decision limit for --replay-seed\n"
    "  --list                print litmus, protocol and mutation names\n",
};

Options Parse(int argc, char** argv) {
  Options o;
  SimConfig& sim = o.base.sim;
  for (int i = 1; i < argc; ++i) {
    const FlagArg f(argv[i], [](const std::string& m) { UsageError(kTool, m); });
    const std::string& arg = f.arg();
    if (arg == "--list") {
      std::printf("litmus tests:");
      for (const std::string& l : LitmusNames()) {
        std::printf(" %s", l.c_str());
      }
      std::printf("\nprotocols:");
      for (const ProtocolSpelling& p : kProtocolSpellings) {
        std::printf(" %s", p.flag);
      }
      std::printf("\nmutations:");
      for (const EnumName<TestMutation>& m : kTestMutationNames) {
        std::printf(" %s", m.name);
      }
      std::printf("\n");
      std::exit(0);
    } else if (f.Has("--litmus=")) {
      const std::string s = f.Value("--litmus=");
      o.litmus = s == "all" ? LitmusNames() : SplitList(s);
    } else if (arg == "--protocols=all") {
      for (const ProtocolSpelling& p : kProtocolSpellings) {
        o.protocols.push_back(p.value);
      }
    } else if (f.Named("--protocols=", ParseProtocolFlags, &o.protocols)) {
    } else if (f.Int("--seeds=", &o.seeds, 1)) {
    } else if (f.Int("--seed=", &o.first_seed, 0)) {
    } else if (f.Int("--jobs=", &o.jobs, 0)) {
    } else if (f.Int("--nodes=", &sim.nodes, 2)) {  // A writer and a reader, at least.
    } else if (f.Int("--rounds=", &o.base.rounds, 1)) {
    } else if (f.Int("--page-size=", &sim.page_size, 1)) {
    } else if (f.Micros("--max-jitter-us=", &o.base.max_jitter, 0)) {
    } else if (arg == "--no-permute") {
      o.base.permute_tasks = false;
    } else if (f.Named("--mutation=", ParseTestMutationName, &sim.protocol.mutation)) {
    } else if (f.Probability("--fault-drop=", &sim.fault.drop_prob)) {
    } else if (arg == "--coalesce") {
      sim.network.coalesce = true;
    } else if (arg == "--stop-on-failure") {
      o.stop_on_failure = true;
    } else if (f.Int("--replay-seed=", &o.replay_seed, 0)) {
      o.replay = true;
    } else if (f.Int("--limit=", &o.limit, 0)) {
      o.limit_set = true;
    } else if (!HandleCommonFlag(kTool, arg)) {
      UsageError(kTool, "unknown flag: " + arg);
    }
  }
  if (const std::string error = sim.Validate(); !error.empty()) {
    UsageError(kTool, error);
  }
  // --replay-seed and --limit only make sense as a pair: a replay without a
  // decision limit is not the minimized schedule svmcheck printed, and a
  // limit without a replay seed would silently run a full sweep.
  if (o.replay && !o.limit_set) {
    UsageError(kTool, "--replay-seed requires --limit");
  }
  if (o.limit_set && !o.replay) {
    UsageError(kTool, "--limit requires --replay-seed");
  }
  if (o.litmus.empty()) {
    o.litmus = LitmusNames();
  }
  // Validate names up front: a typo should list the alternatives, not abort
  // mid-sweep inside MakeLitmus.
  const std::vector<std::string>& known = LitmusNames();
  for (const std::string& name : o.litmus) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "unknown litmus '%s'; known litmus tests:", name.c_str());
      for (const std::string& l : known) {
        std::fprintf(stderr, " %s", l.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
  // Limits of the litmus programs themselves, before any run.
  for (const std::string& name : o.litmus) {
    LitmusConfig lcfg;
    lcfg.nodes = sim.nodes;
    lcfg.rounds = o.base.rounds;
    if (const std::string error = MakeLitmus(name, lcfg)->ConfigError(sim.page_size);
        !error.empty()) {
      UsageError(kTool, error);
    }
  }
  if (o.protocols.empty()) {
    o.protocols = {ProtocolKind::kLrc, ProtocolKind::kErc, ProtocolKind::kHlrc,
                   ProtocolKind::kAurc};
  }
  return o;
}

CheckConfig BaseConfig(const Options& o, const std::string& litmus, ProtocolKind protocol) {
  CheckConfig cfg = o.base;
  cfg.litmus = litmus;
  cfg.sim.protocol.kind = protocol;
  return cfg;
}

void PrintViolations(const CheckResult& r) {
  for (const OracleViolation& v : r.violations) {
    std::printf("    violation: %s\n", v.description.c_str());
  }
}

void PrintTrace(const CheckResult& r, uint64_t limit) {
  std::printf("    decision trace (%llu chaos decisions%s):",
              static_cast<unsigned long long>(std::min(limit, r.decisions_used)),
              r.trace.size() < std::min<uint64_t>(limit, r.decisions_used) ? ", first shown"
                                                                           : "");
  uint64_t shown = 0;
  for (const ChaosDecision& d : r.trace) {
    if (d.index >= limit) {
      break;
    }
    std::printf(" %c:%llu", d.kind, static_cast<unsigned long long>(d.value));
    if (++shown >= 16) {
      std::printf(" ...");
      break;
    }
  }
  std::printf("\n");
}

int Replay(const Options& o) {
  int rc = 0;
  for (const std::string& litmus : o.litmus) {
    for (ProtocolKind protocol : o.protocols) {
      CheckConfig cfg = BaseConfig(o, litmus, protocol);
      cfg.sim.seed = o.replay_seed;
      cfg.decision_limit = o.limit;
      const CheckResult r = RunOne(cfg);
      std::printf("%-20s %-6s seed=%llu limit=%llu: %s (%lld reads, %lld writes, %llu decisions)\n",
                  litmus.c_str(), ProtocolName(protocol),
                  static_cast<unsigned long long>(o.replay_seed),
                  static_cast<unsigned long long>(o.limit), r.ok ? "ok" : "VIOLATION",
                  static_cast<long long>(r.reads_checked),
                  static_cast<long long>(r.writes_recorded),
                  static_cast<unsigned long long>(r.decisions_used));
      PrintTrace(r, o.limit);
      if (!r.ok) {
        PrintViolations(r);
        rc = 1;
      }
    }
  }
  return rc;
}

int Main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  if (o.replay) {
    return Replay(o);
  }

  const int jobs = EffectiveJobs(o.jobs, o.seeds);
  std::printf("svmcheck: %d seeds per pair, %d nodes, %d rounds, mutation=%s\n", o.seeds,
              o.base.sim.nodes, o.base.rounds, TestMutationName(o.base.sim.protocol.mutation));
  int total_failures = 0;
  int64_t total_reads = 0;
  for (const std::string& litmus : o.litmus) {
    for (ProtocolKind protocol : o.protocols) {
      const CheckConfig base = BaseConfig(o, litmus, protocol);
      // Sweep aggregates in seed order, so the report is byte-identical at
      // any job count. Only the first failure is minimized and printed.
      bool printed_failure = false;
      auto on_failure = [&](uint64_t s, const CheckResult&) {
        if (printed_failure) {
          return;
        }
        printed_failure = true;
        std::printf("%-20s %-6s seed=%llu: VIOLATION — minimizing...\n", litmus.c_str(),
                    ProtocolName(protocol), static_cast<unsigned long long>(s));
        CheckConfig failing = base;
        failing.sim.seed = s;
        const MinimizedSchedule min = Minimize(failing);
        const TestMutation mutation = base.sim.protocol.mutation;
        std::printf("  reproduce: svmcheck --replay-seed=%llu --limit=%llu "
                    "--litmus=%s --protocols=%s --nodes=%d --rounds=%d%s%s\n",
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(min.config.decision_limit),
                    litmus.c_str(), ProtocolFlag(protocol), base.sim.nodes, base.rounds,
                    mutation != TestMutation::kNone ? " --mutation=" : "",
                    mutation != TestMutation::kNone ? TestMutationName(mutation) : "");
        PrintTrace(min.result, min.config.decision_limit);
        PrintViolations(min.result);
      };
      const SweepResult sweep =
          Sweep(base, o.first_seed, o.seeds, on_failure, jobs, o.stop_on_failure);
      std::printf("%-20s %-6s: %d seeds, %d violation%s, %lld reads checked\n",
                  litmus.c_str(), ProtocolName(protocol), sweep.runs, sweep.failures,
                  sweep.failures == 1 ? "" : "s", static_cast<long long>(sweep.reads_checked));
      total_failures += sweep.failures;
      total_reads += sweep.reads_checked;
    }
  }
  std::printf("total: %lld reads checked, %d violating run%s\n",
              static_cast<long long>(total_reads), total_failures,
              total_failures == 1 ? "" : "s");
  return total_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
