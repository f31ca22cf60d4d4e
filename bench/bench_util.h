// Shared harness for the table/figure reproduction binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <map>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/table.h"
#include "src/sim/sweep.h"  // ParallelMap/ParallelFor for --jobs fan-out.
#include "src/svm/system.h"

namespace hlrc {
namespace bench {

struct BenchOptions {
  std::vector<int> node_counts = {8, 32, 64};
  AppScale scale = AppScale::kDefault;
  std::vector<ProtocolKind> protocols = {ProtocolKind::kLrc, ProtocolKind::kOlrc,
                                         ProtocolKind::kHlrc, ProtocolKind::kOhlrc};
  std::vector<std::string> apps;  // Empty => all five.
  int64_t page_size = 4096;
  HomePolicy home_policy = HomePolicy::kBlock;
  bool verify = true;
  // Fault injection (docs/FAULTS.md): a nonzero drop rate makes BaseConfig
  // produce a lossy fabric with reliable delivery enabled, so any table can
  // be regenerated under degradation (e.g. table5_traffic --fault-drop=0.01).
  double fault_drop = 0.0;
  uint64_t fault_seed = 42;
  // Reliable delivery without faults (--reliable): acks/retransmit machinery
  // on a clean fabric, the baseline the coalesced wire plane is measured
  // against (table5_traffic --coalesce).
  bool reliable = false;
  // Coalesced wire plane (--coalesce, NetworkConfig::coalesce) + combining
  // barrier tree (--barrier-arity=N). Piggybacked acks engage when
  // reliability is on.
  bool coalesce = false;
  int barrier_arity = 0;
  // Worker threads for benchmarks that fan data points out through
  // ParallelMap (src/sim/sweep.h). Each data point is an isolated System, so
  // tables and JSON output are byte-identical at any job count.
  // 0 = hardware concurrency.
  int jobs = 0;
  // When non-empty, benchmarks that support it also write their results as a
  // machine-readable JSON file (schema "hlrc-bench" v1) for plotting and
  // regression tracking alongside the ASCII table.
  std::string json_out;
  // Benchmarks that support it (fig3_time_breakdowns) add a causal-span
  // critical-path companion table (docs/OBSERVABILITY.md).
  bool causal = false;
};

// Parses --nodes=8,32,64 --scale=tiny|default|paper --apps=lu,sor
// --protocols=lrc,hlrc --page-size=4096 --fault-drop=0.01 --fault-seed=7.
// Unknown flags and malformed values print usage and exit 2.
BenchOptions ParseArgs(int argc, char** argv);

SimConfig BaseConfig(const BenchOptions& opts, ProtocolKind kind, int nodes);

// Exits 2, naming the flag, if `app` cannot run on `cfg` (App::ConfigError):
// an application's own limit is a usage error, not a failed run. Checked per
// run, not by ParseArgs: binaries narrow the apps, node counts and page sizes
// they run. RunVerified calls it; a binary that runs an app another way calls
// it before the run.
void CheckAppLimits(const App& app, const SimConfig& cfg);

// Runs one application once; exits 2 if the app cannot run on `cfg`
// (CheckAppLimits); aborts if verification fails (a benchmark on an
// incorrect run would be meaningless).
AppRunResult RunVerified(const std::string& app_name, const BenchOptions& opts,
                         const SimConfig& cfg);

// Virtual time of the uniprocessor computation (the paper's "sequential
// execution time" baseline): the pure compute time of a 1-node run.
SimTime SequentialTime(const std::string& app_name, const BenchOptions& opts);

std::string FmtSeconds(SimTime t);

// Accumulates one flat result row per benchmark data point and writes them
// as {"schema":"hlrc-bench","version":1,"bench":...,"rows":[{...},...]}.
// Field order within a row is preserved. Usage:
//   BenchJson json("table2_speedups");
//   json.BeginRow();
//   json.Add("app", app); json.Add("nodes", nodes); json.Add("speedup", s);
//   json.EndRow();
//   ... if (!opts.json_out.empty()) json.WriteFile(opts.json_out);
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : bench_name_(std::move(bench_name)) {}

  void BeginRow();
  void Add(const std::string& key, const std::string& v);
  void Add(const std::string& key, const char* v);
  void Add(const std::string& key, int64_t v);
  void Add(const std::string& key, int v) { Add(key, static_cast<int64_t>(v)); }
  void Add(const std::string& key, double v);
  void EndRow();

  std::string ToJson() const;
  // Writes ToJson() to `path`; aborts with a message on I/O failure (a bench
  // run whose results vanish is worse than one that stops).
  void WriteFile(const std::string& path) const;

 private:
  struct Field {
    enum class Kind { kString, kInt, kDouble } kind;
    std::string key;
    std::string s;
    int64_t i = 0;
    double d = 0.0;
  };
  std::string bench_name_;
  std::vector<std::vector<Field>> rows_;
  bool in_row_ = false;
};

}  // namespace bench
}  // namespace hlrc

#endif  // BENCH_BENCH_UTIL_H_
