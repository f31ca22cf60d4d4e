// perfbench — outside-in host benchmark of the simulator (see README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// Every run is one complete simulation in a fresh child process, one at a
// time. --trace 0 repeats untraced runs for about S seconds (at least
// kMinRuns), each between two passes of the reference kernel, and reports
// the end-to-end metrics. --trace 1 makes two untraced runs and then the
// traced pass, and reports the per-layer metrics.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <errno.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/probe.h"

namespace perfbench {
namespace {

constexpr int kMinRuns = 3;
constexpr int kMaxRuns = 64;
constexpr unsigned kRunTimeoutS = 150;  // A run that hangs is killed and fails.
constexpr uint64_t kDefaultSeed = 42;
// The reference kernel's time on the reference host (README.md,
// Calibration). Untraced host times are scaled to that host's speed.
constexpr double kReferenceS = 0.30;
// How much more a run slows than the kernel, in log terms. Measured values
// ranged from 0.85 to 2.0 by workload and hour; 1.25 gave the smallest
// worst-case spread (README.md, Calibration).
constexpr double kSensitivity = 1.25;

struct Metric {
  const char* name;
  const char* unit;
  // Summarised over an invocation's runs by the mean of their middle half
  // rather than the median (README.md, Noise).
  bool midmean = false;
};

const std::vector<Metric> kEndToEnd = {
    {"wall_s", "s", true}, {"sim_s", "s", true}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"}};

const std::vector<Metric> kPerLayer = {
    {"apps.construct_s", "s"},
    {"apps.setup_s", "s"},
    {"apps.kernel_s", "s"},
    {"apps.verify_s", "s"},
    {"svm.build_s", "s"},
    {"svm.grants", "count"},
    {"svm.computes", "count"},
    {"svm.syncs", "count"},
    {"svm.export_s", "s"},
    {"svm.summary_mb", "MiB"},
    {"svm.virtual_s", "s"},
    {"svm.compute_s", "s"},
    {"svm.data_wait_s", "s"},
    {"svm.lock_wait_s", "s"},
    {"svm.barrier_wait_s", "s"},
    {"svm.gc_s", "s"},
    {"svm.overhead_s", "s"},
    {"svm.digest", "hash"},
    {"sim.events", "count"},
    {"sim.core_s", "s"},
    {"sim.core_ns_per_event", "ns/event"},
    {"net.frames", "count"},
    {"net.deliveries", "count"},
    {"net.update_mb", "MiB"},
    {"net.protocol_mb", "MiB"},
    {"proto.faults", "count"},
    {"proto.page_fetches", "count"},
    {"proto.write_notices", "count"},
    {"proto.pages_invalidated", "count"},
    {"proto.intervals_closed", "count"},
    {"proto.diffs_created", "count"},
    {"proto.diffs_applied", "count"},
    {"proto.lock_acquires", "count"},
    {"proto.remote_acquires", "count"},
    {"proto.barriers", "count"},
    {"proto.gc_runs", "count"},
    {"proto.mem_highwater_mb", "MiB"},
    {"proto.interval_meta_mb", "MiB"},
    {"proto.diff_reapply", "ratio"},
    {"proto.wn_useful", "ratio"},
    {"proto.fetch_per_fault", "ratio"},
    {"mem.prot_changes", "count"},
    {"metrics.record_s", "s"},
    {"metrics.rss_mb", "MiB"},
    {"tracing.spans", "count"},
    {"tracing.spans_dropped", "count"},
    {"host.setup.allocs", "count"},
    {"host.setup.alloc_mb", "MiB"},
    {"host.setup.minflt", "count"},
    {"host.setup.sys_s", "s"},
    {"host.setup.nivcsw", "count"},
    {"host.run.allocs", "count"},
    {"host.run.alloc_mb", "MiB"},
    {"host.run.allocs_per_event", "ratio"},
    {"host.run.minflt", "count"},
    {"host.run.sys_s", "s"},
    {"host.run.nivcsw", "count"},
    {"host.verify.allocs", "count"},
    {"host.verify.alloc_mb", "MiB"},
    {"host.verify.minflt", "count"},
    {"host.verify.sys_s", "s"},
    {"host.verify.nivcsw", "count"},
    {"host.export.allocs", "count"},
    {"host.export.alloc_mb", "MiB"},
    {"host.export.minflt", "count"},
    {"host.export.sys_s", "s"},
    {"host.export.nivcsw", "count"},
    {"bench.trace_overhead_s", "s"},
    {"bench.calibration_s", "s"},
};

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR]\nworkloads:",
               why.c_str());
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return errno == 0;
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + flag);
    }
    uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &a.seed)) Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &n) || n < 1 || n > 3600) Usage("bad --seconds " + value);
      a.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    Usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool WriteAll(int fd, const std::string& s) {
  size_t done = 0;
  while (done < s.size()) {
    const ssize_t n = write(fd, s.data() + done, s.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

std::string ReadAll(int fd) {
  std::string s;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    s.append(buf, static_cast<size_t>(n));
  }
  return s;
}

// The last CPU this process may run on, or -1.
int LastCpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return -1;
  }
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &set)) {
      return c;
    }
  }
  return -1;
}

// Runs `body` in a fresh child process pinned to one CPU, the same for every
// child, and returns its measurements; nullopt when the child aborted, was
// killed, or reported nothing.
std::optional<Values> Spawn(const char* what, const std::function<Values()>& body) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    return std::nullopt;
  }
  const int cpu = LastCpu();
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // No run outlives perfbench.
    dup2(STDERR_FILENO, STDOUT_FILENO);  // Only the pipe carries results.
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    alarm(kRunTimeoutS);
    std::string out;
    char num[40];
    for (const auto& [key, value] : body()) {
      std::snprintf(num, sizeof(num), " %.17g\n", value);
      out += key + num;
    }
    _exit(WriteAll(fds[1], out) ? 0 : 1);
  }
  close(fds[1]);
  const std::string text = ReadAll(fds[0]);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: %s died (%s %d)\n", what,
                 WIFSIGNALED(status) ? "signal" : "exit",
                 WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status));
    return std::nullopt;
  }
  Values v;
  std::istringstream in(text);
  std::string key;
  double value = 0;
  while (in >> key >> value) {
    v[key] = value;
  }
  if (v.empty()) {
    std::fprintf(stderr, "perfbench: %s reported nothing\n", what);
    return std::nullopt;
  }
  return v;
}

// One pass of the reference kernel in a child of its own, on the runs' CPU,
// in seconds; nullopt when it failed or its check differs from the
// invocation's first (`check` holds that one, or -1).
std::optional<double> SpawnCalibration(double* check) {
  const std::optional<Values> c = Spawn("calibration", [] {
    const Calibration cal = Calibrate();
    return Values{{"seconds", cal.seconds}, {"check", static_cast<double>(cal.check)}};
  });
  if (!c.has_value() || c->count("seconds") == 0 || c->count("check") == 0) {
    return std::nullopt;
  }
  if (*check < 0) {
    *check = c->at("check");
  } else if (c->at("check") != *check) {
    std::fprintf(stderr, "perfbench: calibration check %.0f differs from %.0f\n",
                 c->at("check"), *check);
    return std::nullopt;
  }
  return c->at("seconds");
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

// The mean of the values between the first and the third quartile: robust
// to a few outliers like the median, but it averages half the runs.
double MidMean(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t k = xs.size() / 4;
  double sum = 0;
  for (size_t i = k; i < xs.size() - k; ++i) sum += xs[i];
  return sum / static_cast<double>(xs.size() - 2 * k);
}

// Checks one run's outcome: it finished, verified, and its digest matches
// the workload's other runs (`digest` holds the first one seen).
bool Accept(const std::optional<Values>& r, double* digest) {
  if (!r.has_value() || r->at("verified") != 1) {
    return false;
  }
  const double d = r->at("svm.digest");
  if (*digest < 0) {
    *digest = d;
  } else if (d != *digest) {
    std::fprintf(stderr, "perfbench: digest %.0f differs from %.0f\n", d, *digest);
    return false;
  }
  return true;
}

void Emit(bool correct, int attempted, int failed, const std::vector<Metric>& metrics,
          const Values& values) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char num[40];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto it = values.find(metrics[i].name);
    const double v = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

// Printed on stdout ahead of the result, so the seed travels with it.
void Describe(const Workload& w, const Args& a) {
  std::string protocol = hlrc::ProtocolName(w.protocol);
  for (char& c : protocol) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  std::printf("perfbench: %s seed %llu (reproduce: svmsim --app=%s --protocol=%s --nodes=%d "
              "--scale=%s --seed=%llu%s)\n",
              w.name, static_cast<unsigned long long>(a.seed), w.app, protocol.c_str(), w.nodes,
              ScaleName(RunOptions().scale), static_cast<unsigned long long>(a.seed),
              w.observability ? " --metrics-out=FILE" : "");
}

void PrintRun(const char* label, const Values& v) {
  std::fprintf(stderr,
               "perfbench:   %-8s wall_s %.3f  setup_s %.3f  sim_s %.3f  verify %.3f  "
               "export %.3f  peak_rss_mb %.1f  digest %.0f\n",
               label, v.at("wall_s"), v.at("setup_s"), v.at("sim_s"), v.at("apps.verify_s"),
               v.at("svm.export_s"), v.at("peak_rss_mb"), v.at("svm.digest"));
}

// The end-to-end host times, which calibration scales.
constexpr const char* kCalibrated[] = {"wall_s", "sim_s", "setup_s"};

int Untraced(const Workload& w, const Args& a, const RunOptions& opt) {
  std::vector<Values> runs;
  int attempted = 0;
  int failed = 0;
  double digest = -1;
  double check = -1;
  const double deadline = NowS() + a.seconds;
  // Each run sits between two passes of the reference kernel; the pass after
  // one run is the pass before the next.
  std::optional<double> before = SpawnCalibration(&check);
  // A run starts only if it should end by the deadline, judging by the
  // last one, so an invocation takes about --seconds.
  double last = 0;
  while (attempted < kMaxRuns && (attempted < kMinRuns || NowS() + last < deadline)) {
    ++attempted;
    const double start = NowS();
    const std::optional<Values> r = Spawn(w.name, [&] { return RunOnce(w, opt); });
    const std::optional<double> after = SpawnCalibration(&check);
    last = NowS() - start;
    const bool ok = Accept(r, &digest) && before.has_value() && after.has_value();
    if (ok) {
      PrintRun("run", *r);
      // The host ran the reference kernel sqrt(before * after) / kReferenceS
      // times slower than the reference host around this run, so each time
      // is divided by that, raised to kSensitivity.
      const double speed = std::pow(kReferenceS / std::sqrt(*before * *after), kSensitivity);
      Values v = *r;
      for (const char* t : kCalibrated) v[t] *= speed;
      std::fprintf(stderr,
                   "perfbench:   reference kernel %.3f s, %.3f s; calibrated wall_s %.3f  "
                   "setup_s %.3f  sim_s %.3f\n",
                   *before, *after, v.at("wall_s"), v.at("setup_s"), v.at("sim_s"));
      runs.push_back(v);
    } else {
      ++failed;
    }
    before = after;
  }
  Values summary;
  if (!runs.empty()) {
    for (const Metric& m : kEndToEnd) {
      std::vector<double> xs;
      for (const Values& r : runs) xs.push_back(r.at(m.name));
      summary[m.name] = m.midmean ? MidMean(xs) : Median(xs);
    }
  }
  const bool correct = failed == 0 && !runs.empty();
  Emit(correct, attempted, failed, kEndToEnd, summary);
  return correct ? 0 : 1;
}

int Traced(const Workload& w, RunOptions opt) {
  const std::string span_path = SpanPath(w, opt);
  int attempted = 0;
  int failed = 0;
  double digest = -1;
  double check = -1;
  auto run = [&](const char* label, bool traced, bool observability) {
    opt.traced = traced;
    opt.observability = observability;
    ++attempted;
    std::optional<Values> r = Spawn(w.name, [&] { return RunOnce(w, opt); });
    if (!Accept(r, &digest)) {
      ++failed;
      return std::optional<Values>();
    }
    PrintRun(label, *r);
    return r;
  };
  // Two untraced runs, and the overhead is taken against the faster: the
  // host's speed drifts from run to run (README.md, Noise).
  std::optional<Values> plain = run("untraced", false, w.observability);
  const std::optional<Values> plain2 = run("untraced", false, w.observability);
  if (!plain.has_value() || (plain2.has_value() && plain2->at("wall_s") < plain->at("wall_s"))) {
    plain = plain2;
  }
  // Per-layer times stay raw; the reference kernel's time beside them says
  // how fast the host ran.
  const std::optional<double> calibration = SpawnCalibration(&check);
  const std::optional<Values> traced = run("traced", true, w.observability);
  // The observability split: the same traced pass with metrics and spans off.
  std::optional<Values> obs_off;
  if (w.observability) {
    obs_off = run("obs-off", true, false);
  }

  Values v;
  bool correct = failed == 0 && calibration.has_value();
  if (traced.has_value()) {
    v = *traced;
    // Windows never overlap (one node's code runs at a time), so together
    // they fit inside Run, and each grant opens exactly one.
    if (v.at("kernel_windows") != v.at("svm.grants") || v.at("apps.kernel_s") >= v.at("sim_s")) {
      std::fprintf(stderr, "perfbench: kernel windows %.0f for %.0f grants, %.3f s of %.3f s\n",
                   v.at("kernel_windows"), v.at("svm.grants"), v.at("apps.kernel_s"),
                   v.at("sim_s"));
      correct = false;
    }
    std::fprintf(stderr, "perfbench: spans written to %s\n", span_path.c_str());
  }
  v["metrics.record_s"] = 0;
  v["metrics.rss_mb"] = 0;
  if (traced.has_value() && obs_off.has_value()) {
    v["metrics.record_s"] = traced->at("sim_s") - obs_off->at("sim_s");
    v["metrics.rss_mb"] = traced->at("peak_rss_mb") - obs_off->at("peak_rss_mb");
  }
  v["bench.trace_overhead_s"] =
      traced.has_value() && plain.has_value() ? traced->at("wall_s") - plain->at("wall_s") : 0;
  v["bench.calibration_s"] = calibration.value_or(0);
  correct = correct && traced.has_value();
  Emit(correct, attempted, failed, kPerLayer, v);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  const Workload& w = *FindWorkload(a.workload);
  RunOptions opt;
  opt.seed = a.seed;
  opt.observability = w.observability;
  opt.out_dir = a.out;
  Describe(w, a);
  return a.trace ? Traced(w, opt) : Untraced(w, a, opt);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
