// Application interface for the five benchmark programs (paper §4.1).
//
// An App allocates its shared data in Setup(), returns a per-node coroutine
// program, and verifies the parallel result against a sequential reference
// after the run. Apps perform their real arithmetic on the shared pages (so
// diff contents and sizes are exact) and charge virtual compute time through
// NodeContext::ComputeFlops.
#ifndef SRC_APPS_APP_H_
#define SRC_APPS_APP_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/svm/system.h"

namespace hlrc {

class App {
 public:
  virtual ~App() = default;

  virtual std::string name() const = 0;

  // Allocates shared memory; called once before System::Run.
  virtual void Setup(System& sys) = 0;

  // The per-node program. Node 0 initializes shared data before barrier 0.
  virtual System::Program Program() = 0;

  // Verifies the converged shared state against a sequential reference.
  // Returns true on success; fills `why` otherwise.
  virtual bool Verify(System& sys, std::string* why) = 0;

  // Why the app cannot run on `config`, as a message naming the flag at
  // fault, or "" if it can. The command-line tools check it before the run
  // and exit 2.
  virtual std::string ConfigError(const SimConfig& config) const {
    (void)config;
    return "";
  }
};

// ConfigError of an app that splits `rows` rows into one band per node:
// every node needs at least one row.
std::string RowBandsError(const std::string& app, int rows, int nodes);

// "got <got> want <want>", both to 17 significant digits, which tell any two
// doubles apart: how a Verify mismatch message shows the values that differ.
std::string GotWant(double got, double want);

// Problem scale presets.
enum class AppScale {
  kTiny,     // Unit-test sized; seconds of virtual time.
  kDefault,  // Benchmark default (scaled-down paper problem).
  kPaper,    // The paper's problem size (slow to simulate).
};

// The command-line name of a scale: "tiny", "default" or "paper".
const char* AppScaleName(AppScale scale);
// Inverse of AppScaleName; returns false for any other name.
bool ParseAppScale(const std::string& name, AppScale* scale);

// Factory by name: "lu", "sor", "water-nsq", "water-sp", "raytrace", "fft",
// plus any extension registered with AppRegistrar (e.g. the synthetic
// workloads of src/wkld). `seed` overrides the application's input seed
// (random initial state); by default each app keeps its historical fixed
// seed, so existing runs are unchanged. Pass SimConfig::seed here to plumb
// one root seed through a run. Aborts on unknown names; use TryMakeApp for a
// recoverable lookup.
std::unique_ptr<App> MakeApp(const std::string& name, AppScale scale,
                             std::optional<uint64_t> seed = std::nullopt);

// Like MakeApp but returns nullptr on an unknown name.
std::unique_ptr<App> TryMakeApp(const std::string& name, AppScale scale,
                                std::optional<uint64_t> seed = std::nullopt);

// The five benchmark names evaluated in the paper, in its order.
const std::vector<std::string>& AppNames();

// All applications, including extensions beyond the paper's five (FFT).
const std::vector<std::string>& AllAppNames();

// Every name registered with AppRegistrar (sorted): the paper apps plus any
// linked-in extensions. This is the authoritative list for CLI validation.
std::vector<std::string> RegisteredAppNames();

// Self-registration into the name→factory table behind MakeApp. Each
// application's translation unit defines one registrar at namespace scope;
// the apps library is an OBJECT library, so registrars in otherwise
// unreferenced translation units survive static-archive dead stripping.
class AppRegistrar {
 public:
  using Factory =
      std::function<std::unique_ptr<App>(AppScale scale, std::optional<uint64_t> seed)>;
  AppRegistrar(const char* name, Factory factory);
};

// Convenience: build a system, run the app, verify, and return the report.
struct AppRunResult {
  RunReport report;
  bool verified = false;
  std::string why;
};
AppRunResult RunApp(App& app, const SimConfig& config);

}  // namespace hlrc

#endif  // SRC_APPS_APP_H_
