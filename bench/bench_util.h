// Shared harness for the table/figure reproduction binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/table.h"
#include "src/metrics/json_writer.h"
#include "src/sim/sweep.h"  // ParallelMap/ParallelFor for --jobs fan-out.
#include "src/svm/system.h"
#include "src/tracing/critpath.h"

namespace hlrc {
namespace bench {

struct BenchOptions {
  std::vector<int> node_counts = {8, 32, 64};
  AppScale scale = AppScale::kDefault;
  std::vector<ProtocolKind> protocols = {ProtocolKind::kLrc, ProtocolKind::kOlrc,
                                         ProtocolKind::kHlrc, ProtocolKind::kOhlrc};
  std::vector<std::string> apps;  // Empty => all five.
  bool verify = true;
  // The machine every run starts from; BaseConfig sets the run's node count
  // and protocol. --page-size, --home, --fault-drop, --fault-seed, --reliable
  // and --coalesce parse into it: e.g. paper_grid --fault-drop=0.01
  // regenerates the grid on a lossy fabric (docs/FAULTS.md), and --reliable
  // is the clean-fabric baseline the coalesced wire plane is measured against.
  SimConfig base = [] {
    SimConfig c;
    c.shared_bytes = 256ll << 20;  // Mirrors are lazily backed; size generously.
    return c;
  }();
  // Worker threads for benchmarks that fan data points out through
  // ParallelMap (src/sim/sweep.h). Each data point is an isolated System, so
  // tables and JSON output are byte-identical at any job count.
  // 0 = hardware concurrency.
  int jobs = 0;
  // When non-empty, benchmarks that support it also write their results as a
  // machine-readable JSON file (schema "hlrc-bench" v1) for plotting and
  // regression tracking alongside the ASCII table.
  std::string json_out;
  // Benchmarks that support it (paper_grid's Figure 3) add a causal-span
  // critical-path companion table (docs/OBSERVABILITY.md).
  bool causal = false;
};

// Parses --nodes=8,32,64 --scale=tiny|default|paper --apps=lu,sor
// --protocols=lrc,hlrc --page-size=4096 --fault-drop=0.01 --fault-seed=7.
// --help prints usage on stdout (exit 0), a bad flag on stderr (exit 2).
BenchOptions ParseArgs(int argc, char** argv);

// `opts.base` with the run's node count and protocol.
SimConfig BaseConfig(const BenchOptions& opts, ProtocolKind kind, int nodes);

// Exits 2, naming the flag, if `app` cannot run on `cfg` (App::ConfigError):
// an application's own limit is a usage error, not a failed run. Checked per
// run, not by ParseArgs: binaries narrow the apps, node counts and page sizes
// they run. RunVerified calls it; a binary that runs an app another way calls
// it before the run.
void CheckAppLimits(const App& app, const SimConfig& cfg);

// Runs one application once; exits 2 if the app cannot run on `cfg`
// (CheckAppLimits); aborts if verification fails (a benchmark on an
// incorrect run would be meaningless). With `crit`, the run also records
// causal spans and fills *crit with their critical-path attribution
// (docs/OBSERVABILITY.md); tracing is pure observation, so the report is
// the same either way.
AppRunResult RunVerified(const std::string& app_name, const BenchOptions& opts,
                         const SimConfig& cfg, CritPathSummary* crit = nullptr);

// Virtual time of the uniprocessor computation (the paper's "sequential
// execution time" baseline): the pure compute time of a 1-node run.
SimTime SequentialTime(const std::string& app_name, const BenchOptions& opts);

std::string FmtSeconds(SimTime t);

// Machine-readable results (--json), schema "hlrc-bench" v1:
// {"schema":"hlrc-bench","version":1,"bench":NAME,"rows":[{...},...]}.
// OpenBenchJson writes that object up to the open rows array; the caller
// writes one flat object per data point straight through the JsonWriter.
// WriteBenchJson closes the array and the object, writes `path` and says so
// on stdout. It aborts on I/O failure: a bench run whose results vanish is
// worse than one that stops.
JsonWriter OpenBenchJson(const std::string& bench_name);
void WriteBenchJson(JsonWriter& json, const std::string& path);

}  // namespace bench
}  // namespace hlrc

#endif  // BENCH_BENCH_UTIL_H_
