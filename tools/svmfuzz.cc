// svmfuzz — coverage-guided protocol fuzzer (src/fuzz, docs/FUZZING.md).
//
// Mutates synthetic-workload genomes and chaos-schedule decision strings,
// guided by a protocol-state coverage map (message edges, page-protection
// transitions, sync epochs, fault decisions, interval sizes). Every shared
// read is validated online by the LRC oracle; coverage-novel inputs are
// additionally replayed under several protocol families and their final
// shared-memory images diffed. The first violation or divergence is
// minimized and written as a self-contained repro file.
//
//   svmfuzz --budget=10000 --seed=7
//   svmfuzz --mutation=hlrc-skip-diff-apply --repro-out=bug.repro
//   svmfuzz --repro=bug.repro                # replay a finding
//   svmfuzz --budget=2000 --cover-report     # coverage as a metric
//
// Exit status: 0 clean session (or reproducer confirmed), 1 violation or
// divergence found (or reproducer did not reproduce), 2 bad invocation.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/repro.h"
#include "src/sim/sweep.h"
#include "src/svm/config.h"
#include "src/wkld/synth.h"

namespace hlrc {
namespace {

const ToolInfo kTool = {
    "svmfuzz",
    "Coverage-guided fuzzer for the SVM protocol families, with an LRC\n"
    "oracle on every shared read and differential cross-protocol replay\n"
    "of coverage-novel inputs.",
    "  --budget=N            total harness executions (default 1000)\n"
    "  --seed=N              session seed (default 1)\n"
    "  --jobs=N              worker threads per batch (default: hardware\n"
    "                        concurrency; results are --jobs independent)\n"
    "  --batch=N             mutants per batch (default 16)\n"
    "  --nodes=N             simulated node count (default 4)\n"
    "  --page-size=BYTES     SVM page size (default 512)\n"
    "  --max-jitter-us=N     max per-message delivery jitter (default 150)\n"
    "  --primary=NAME        protocol fuzzed directly: lrc | olrc | hlrc |\n"
    "                        ohlrc | erc | aurc (default hlrc)\n"
    "  --cross=LIST          differential protocol set (default\n"
    "                        lrc,erc,hlrc,aurc; first entry is the reference)\n"
    "  --mutation=NAME       seeded protocol bug for canary sessions: none |\n"
    "                        hlrc-skip-diff-apply | lrc-skip-invalidate\n"
    "  --fault-drop=P        drop probability under every run (reliable\n"
    "                        delivery is enabled automatically)\n"
    "  --fault-delay=P       delay probability under every run\n"
    "  --no-feedback         disable corpus growth (uniform random control)\n"
    "  --no-differential     skip cross-protocol replay of novel inputs\n"
    "  --max-seconds=S       wall-clock bound, checked between batches\n"
    "  --corpus-out=DIR      write the final corpus as repro files\n"
    "  --repro-out=FILE      write the minimized failure repro here\n"
    "                        (default: svmfuzz-failure.repro)\n"
    "  --cover-report        print the per-domain coverage breakdown\n"
    "  --repro=FILE          replay one repro file instead of fuzzing\n",
};

int ReplayFile(const std::string& path) {
  fuzz::ReproFile repro;
  std::string error;
  if (!fuzz::LoadReproFile(path, &repro, &error)) {
    std::fprintf(stderr, "svmfuzz: %s\n", error.c_str());
    return 2;
  }
  std::printf("svmfuzz: replaying %s (%s, %d nodes, origin %s)\n", path.c_str(),
              ProtocolName(repro.config.protocol), repro.input.workload.nodes,
              repro.input.workload.origin.c_str());
  const std::string violation = fuzz::ReplayRepro(repro);
  if (violation.empty()) {
    std::printf("svmfuzz: repro did NOT reproduce (run was clean)\n");
    if (!repro.violation.empty()) {
      std::printf("  recorded violation was: %s\n", repro.violation.c_str());
    }
    return 1;
  }
  std::printf("svmfuzz: reproduced: %s\n", violation.c_str());
  return 0;
}

bool WriteCorpus(const std::string& dir, const fuzz::Fuzzer& fuzzer,
                 const fuzz::FuzzConfig& cfg) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "svmfuzz: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  int idx = 0;
  for (const fuzz::FuzzInput& input : fuzzer.corpus()) {
    fuzz::ReproFile entry;
    entry.input = input;
    entry.config = cfg.harness;
    char name[64];
    std::snprintf(name, sizeof(name), "corpus-%04d.repro", idx++);
    std::string error;
    if (!fuzz::WriteReproFile(dir + "/" + name, entry, &error)) {
      std::fprintf(stderr, "svmfuzz: %s\n", error.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  fuzz::FuzzConfig cfg;
  cfg.jobs = 0;  // EffectiveJobs resolves 0 to hardware concurrency.
  std::string corpus_out;
  std::string repro_out = "svmfuzz-failure.repro";
  std::string replay_path;
  bool cover_report = false;

  for (int i = 1; i < argc; ++i) {
    const FlagArg f(argv[i], [](const std::string& m) { UsageError(kTool, m); });
    const std::string& arg = f.arg();
    if (f.Int("--budget=", &cfg.budget, 1)) {
    } else if (f.Int("--seed=", &cfg.seed, 0)) {
    } else if (f.Int("--jobs=", &cfg.jobs, 0)) {
    } else if (f.Int("--batch=", &cfg.batch, 1)) {
    } else if (f.Int("--nodes=", &cfg.nodes, 2)) {
    } else if (f.Int("--page-size=", &cfg.page_size, 1)) {
    } else if (f.Micros("--max-jitter-us=", &cfg.max_jitter, 0)) {
    } else if (f.Named("--primary=", ParseProtocolFlag, &cfg.harness.protocol)) {
    } else if (f.Has("--cross=")) {
      cfg.cross.clear();
      f.Named("--cross=", ParseProtocolFlags, &cfg.cross);
    } else if (f.Named("--mutation=", ParseTestMutationName, &cfg.harness.mutation)) {
    } else if (f.Probability("--fault-drop=", &cfg.harness.fault.drop_prob)) {
    } else if (f.Probability("--fault-delay=", &cfg.harness.fault.delay_prob)) {
    } else if (arg == "--no-feedback") {
      cfg.feedback = false;
    } else if (arg == "--no-differential") {
      cfg.differential = false;
    } else if (f.Parsed(
                   "--max-seconds=",
                   [](const std::string& s, double* out) { return ParseReal(s, out, 0, 1e9); },
                   &cfg.max_seconds, "a number of seconds >= 0")) {
    } else if (f.Has("--corpus-out=")) {
      corpus_out = f.Value("--corpus-out=");
    } else if (f.Has("--repro-out=")) {
      repro_out = f.Value("--repro-out=");
    } else if (arg == "--cover-report") {
      cover_report = true;
    } else if (f.Has("--repro=")) {
      replay_path = f.Value("--repro=");
    } else if (!HandleCommonFlag(kTool, arg)) {
      UsageError(kTool, "unknown flag: " + arg);
    }
  }
  if (!replay_path.empty()) {
    return ReplayFile(replay_path);
  }
  // Seed workloads come from the synthetic generator, which needs its pages.
  if (const std::string error =
          PageSizeError(cfg.page_size, cfg.shared_bytes, wkld::kMinSynthPageSize);
      !error.empty()) {
    UsageError(kTool, error);
  }
  cfg.jobs = EffectiveJobs(cfg.jobs, cfg.batch);

  std::printf("svmfuzz: seed=%llu budget=%d batch=%d jobs=%d primary=%s mutation=%s%s%s\n",
              static_cast<unsigned long long>(cfg.seed), cfg.budget, cfg.batch, cfg.jobs,
              ProtocolName(cfg.harness.protocol), TestMutationName(cfg.harness.mutation),
              cfg.feedback ? "" : " (no feedback)",
              cfg.differential ? "" : " (no differential)");
  fuzz::Fuzzer fuzzer(cfg);
  const fuzz::FuzzResult result = fuzzer.Run();

  std::printf("svmfuzz: %d executions in %d batches, %d differential, corpus %d "
              "(%d coverage-novel), %zu coverage points / %lld hits\n",
              result.stats.executions, result.stats.batches,
              result.stats.differential_runs, result.stats.corpus_size,
              result.stats.novel_inputs, result.coverage_points,
              static_cast<long long>(result.coverage_hits));
  if (cover_report) {
    std::printf("%s", result.coverage_report.c_str());
  }
  if (!corpus_out.empty() && !WriteCorpus(corpus_out, fuzzer, cfg)) {
    return 2;
  }
  if (!result.found_failure) {
    std::printf("svmfuzz: no violation found\n");
    return 0;
  }
  std::printf("svmfuzz: VIOLATION: %s\n", result.violation.c_str());
  std::string error;
  if (!fuzz::WriteReproFile(repro_out, result.repro, &error)) {
    std::fprintf(stderr, "svmfuzz: %s\n", error.c_str());
  } else {
    std::printf("svmfuzz: minimized repro written to %s (replay: svmfuzz --repro=%s)\n",
                repro_out.c_str(), repro_out.c_str());
  }
  return 1;
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
