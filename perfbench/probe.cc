#include "perfbench/probe.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/coverage.h"
#include "src/common/rng.h"
#include "src/svm/run_summary.h"
#include "src/svm/workload_observer.h"
#include "src/tracing/span.h"

namespace perfbench {

using hlrc::NodeId;

// Why these three: README.md, Workloads.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"lu-lrc-32", "lu", hlrc::ProtocolKind::kLrc, 32, false},
      {"sor-hlrc-32", "sor", hlrc::ProtocolKind::kHlrc, 32, false},
      {"wnsq-lrc-64-obs", "water-nsq", hlrc::ProtocolKind::kLrc, 64, true},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

const char* ScaleName(hlrc::AppScale scale) {
  switch (scale) {
    case hlrc::AppScale::kTiny:
      return "tiny";
    case hlrc::AppScale::kDefault:
      return "default";
    case hlrc::AppScale::kPaper:
      return "paper";
  }
  return "default";
}

std::string SpanPath(const Workload& w, const RunOptions& opt) {
  return opt.out_dir + "/spans-" + w.name +
         (opt.observability == w.observability ? "" : "-obsoff") + ".json";
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(int64_t num, int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Process counters read at phase boundaries.
struct Usage {
  int64_t allocs = 0;
  int64_t alloc_bytes = 0;
  int64_t minflt = 0;
  int64_t nivcsw = 0;
  double sys_s = 0;
  int64_t maxrss_kib = 0;

  static Usage Now() {
    Usage u;
    u.allocs = AllocCount();
    u.alloc_bytes = AllocBytes();
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
      u.minflt = ru.ru_minflt;
      u.nivcsw = ru.ru_nivcsw;
      u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
      u.maxrss_kib = ru.ru_maxrss;
    }
    return u;
  }
};

void PutPhase(Values* v, const char* phase, const Usage& a, const Usage& b) {
  const std::string p = std::string("host.") + phase + ".";
  (*v)[p + "allocs"] = static_cast<double>(b.allocs - a.allocs);
  (*v)[p + "alloc_mb"] = static_cast<double>(b.alloc_bytes - a.alloc_bytes) / kMiB;
  (*v)[p + "minflt"] = static_cast<double>(b.minflt - a.minflt);
  (*v)[p + "sys_s"] = b.sys_s - a.sys_s;
  (*v)[p + "nivcsw"] = static_cast<double>(b.nivcsw - a.nivcsw);
}

// Spans of the traced pass, kept in memory and written out after the run:
// one per call the benchmark makes, and one child of Run per kernel window.
class SpanLog {
 public:
  // Kernel windows kept for the span file (about 2 MB); all are counted.
  static constexpr size_t kKernelKeep = 1 << 14;

  int Add(const char* name, int parent, int64_t t0, int64_t t1) {
    calls_.push_back({name, parent, t0, t1});
    return static_cast<int>(calls_.size()) - 1;
  }
  void AddKernel(NodeId node, int64_t t0, int64_t t1) {
    if (kernels_.size() < kKernelKeep) {
      kernels_.push_back({node, t0, t1});
    } else {
      ++kernels_dropped_;
    }
  }

  // Chrome trace-event JSON ("X" slices, loadable in Perfetto): tid 0 holds
  // the benchmark's calls, tid 1+n node n's kernel windows, children of
  // call `run`. Times are relative to `origin`.
  bool Write(const std::string& path, uint64_t seed, int64_t origin, int run) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"seed\":%llu,"
                 "\"kernel_windows_dropped\":%lld},\"traceEvents\":[",
                 static_cast<unsigned long long>(seed), static_cast<long long>(kernels_dropped_));
    size_t id = 0;
    auto emit = [&](const char* name, int tid, int parent, int64_t t0, int64_t t1) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   id == 0 ? "" : ",", name, tid, static_cast<double>(t0 - origin) / 1e3,
                   static_cast<double>(t1 - t0) / 1e3, id, parent);
      ++id;
    };
    for (const Call& c : calls_) {
      emit(c.name, 0, c.parent, c.t0, c.t1);
    }
    for (const Kernel& k : kernels_) {
      emit("kernel", k.node + 1, run, k.t0, k.t1);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Call {
    const char* name;
    int parent;  // Index into calls_, or -1.
    int64_t t0;
    int64_t t1;
  };
  struct Kernel {
    NodeId node;
    int64_t t0;
    int64_t t1;
  };
  std::vector<Call> calls_;
  std::vector<Kernel> kernels_;
  int64_t kernels_dropped_ = 0;
};

// Splits System::Run's host time into app kernels and everything else: a
// kernel window runs from a grant's resumption (OnAccess) to that node's next
// NodeContext call (OnStep) or its end. Code resumed after Compute, Lock or
// Barrier is charged to the core, so kernel time is a lower bound.
class KernelProbe final : public hlrc::WorkloadObserver {
 public:
  KernelProbe(int nodes, SpanLog* log) : open_(static_cast<size_t>(nodes), -1), log_(log) {}

  void OnAlloc(hlrc::GlobalAddr, int64_t, bool) override {}
  void OnStep(NodeId node) override { Close(node); }
  void OnCompute(NodeId, hlrc::SimTime) override { ++computes; }
  void OnAccess(NodeId node, const std::vector<hlrc::AccessRange>&) override {
    ++grants;
    open_[static_cast<size_t>(node)] = NowNs();
  }
  void OnLock(NodeId, hlrc::LockId) override { ++syncs; }
  void OnUnlock(NodeId, hlrc::LockId) override { ++syncs; }
  void OnBarrier(NodeId, hlrc::BarrierId) override { ++syncs; }
  void OnPhase(NodeId, int) override {}
  void OnFinish(NodeId node) override { Close(node); }

  int64_t grants = 0;
  int64_t computes = 0;
  int64_t syncs = 0;
  int64_t windows = 0;
  int64_t kernel_ns = 0;

 private:
  void Close(NodeId node) {
    int64_t& t0 = open_[static_cast<size_t>(node)];
    if (t0 < 0) {
      return;
    }
    const int64_t t1 = NowNs();
    kernel_ns += t1 - t0;
    ++windows;
    log_->AddKernel(node, t0, t1);
    t0 = -1;
  }

  std::vector<int64_t> open_;  // Start of each node's open window, or -1.
  SpanLog* log_;
};

// Counts page-protection changes: kPageTransition points whose before and
// after protections differ (a = before << 8 | after).
class ProtChangeCounter final : public hlrc::CoverageObserver {
 public:
  void Cover(Domain domain, uint64_t a, uint64_t) override {
    if (domain == Domain::kPageTransition && ((a >> 8) & 0xff) != (a & 0xff)) {
      ++changes;
    }
  }
  int64_t changes = 0;
};

void PutReport(Values* v, const hlrc::RunReport& report) {
  const hlrc::NodeReport avg = report.Average();
  const hlrc::NodeReport tot = report.Totals();
  Values& m = *v;
  m["svm.digest"] = static_cast<double>(ReportDigest(report));
  m["svm.virtual_s"] = hlrc::ToSeconds(report.total_time);
  m["svm.compute_s"] = hlrc::ToSeconds(avg.Computation());
  m["svm.data_wait_s"] = hlrc::ToSeconds(avg.DataTransfer());
  m["svm.lock_wait_s"] = hlrc::ToSeconds(avg.LockTime());
  m["svm.barrier_wait_s"] = hlrc::ToSeconds(avg.BarrierTime());
  m["svm.gc_s"] = hlrc::ToSeconds(avg.GcTime());
  m["svm.overhead_s"] = hlrc::ToSeconds(avg.ProtocolOverhead());

  m["net.frames"] = static_cast<double>(tot.traffic.msgs_sent);
  m["net.deliveries"] = static_cast<double>(tot.traffic.msgs_received);
  m["net.update_mb"] = static_cast<double>(tot.traffic.update_bytes_sent) / kMiB;
  m["net.protocol_mb"] = static_cast<double>(tot.traffic.protocol_bytes_sent) / kMiB;

  const hlrc::ProtoStats& p = tot.proto;
  const int64_t faults = p.read_misses + p.write_faults;
  m["proto.faults"] = static_cast<double>(faults);
  m["proto.page_fetches"] = static_cast<double>(p.page_fetches);
  m["proto.write_notices"] = static_cast<double>(p.write_notices_received);
  m["proto.pages_invalidated"] = static_cast<double>(p.pages_invalidated);
  m["proto.intervals_closed"] = static_cast<double>(p.intervals_closed);
  m["proto.diffs_created"] = static_cast<double>(p.diffs_created);
  m["proto.diffs_applied"] = static_cast<double>(p.diffs_applied);
  m["proto.lock_acquires"] = static_cast<double>(p.lock_acquires);
  m["proto.remote_acquires"] = static_cast<double>(p.remote_acquires);
  m["proto.barriers"] = static_cast<double>(p.barriers);
  m["proto.gc_runs"] = static_cast<double>(p.gc_runs);
  m["proto.mem_highwater_mb"] = static_cast<double>(tot.proto_mem_highwater) / kMiB;
  m["proto.interval_meta_mb"] = static_cast<double>(p.interval_meta_highwater) / kMiB;
  m["proto.diff_reapply"] = Ratio(p.diffs_applied, p.diffs_created);
  m["proto.wn_useful"] = Ratio(p.pages_invalidated, p.write_notices_received);
  m["proto.fetch_per_fault"] = Ratio(p.page_fetches, faults);
}

}  // namespace

Values RunOnce(const Workload& w, const RunOptions& opt) {
  Values v;
  SpanLog log;
  const Usage u0 = Usage::Now();
  const int64_t t0 = NowNs();

  hlrc::SimConfig cfg;
  cfg.nodes = w.nodes;
  cfg.shared_bytes = 256ll << 20;
  cfg.seed = opt.seed;
  cfg.protocol.kind = w.protocol;
  // The same derivation as `svmsim --seed=N`, so svmsim reproduces a run.
  const uint64_t app_seed = hlrc::Rng(opt.seed).NextU64();

  std::unique_ptr<hlrc::App> app = hlrc::MakeApp(w.app, opt.scale, app_seed);
  const int64_t t_app = NowNs();
  hlrc::System sys(cfg);
  const int64_t t_sys = NowNs();

  KernelProbe kernels(w.nodes, &log);
  ProtChangeCounter prot;
  if (opt.traced) {
    sys.SetWorkloadObserver(&kernels);  // Before Setup, as System requires.
    sys.SetCoverageObserver(&prot);
  }
  if (opt.observability) {
    sys.EnableMetrics(hlrc::Millis(1));
    sys.EnableSpans(1 << 18);  // svmsim --metrics-out's capacity.
  }
  const int64_t t_setup0 = NowNs();
  app->Setup(sys);
  const Usage u1 = Usage::Now();
  const int64_t t_run0 = NowNs();
  sys.Run(app->Program());
  const int64_t t_run1 = NowNs();
  const Usage u2 = Usage::Now();
  std::string why;
  const bool verified = app->Verify(sys, &why);
  const int64_t t_verify = NowNs();
  const Usage u3 = Usage::Now();
  if (!verified) {
    std::fprintf(stderr, "perfbench: %s failed verification: %s\n", w.name, why.c_str());
  }

  const std::string summary = opt.out_dir + "/summary-" + w.name + "-" +
                              std::to_string(static_cast<long long>(getpid())) + ".json";
  std::string export_err;
  bool exported = true;
  if (opt.observability) {
    hlrc::RunSummaryMeta meta;
    meta.app = app->name();
    meta.scale = ScaleName(opt.scale);
    meta.verified = verified;
    exported = hlrc::WriteRunSummaryJson(summary, sys, meta, &export_err);
  }
  const int64_t t_end = NowNs();
  const Usage u4 = Usage::Now();

  double summary_mb = 0;
  if (opt.observability) {
    if (!exported) {
      std::fprintf(stderr, "perfbench: summary export failed: %s\n", export_err.c_str());
    }
    struct stat st {};
    if (stat(summary.c_str(), &st) == 0) {
      summary_mb = static_cast<double>(st.st_size) / kMiB;
    }
    std::remove(summary.c_str());  // Outside the timing: users keep theirs.
  }

  v["verified"] = verified && exported ? 1 : 0;
  v["wall_s"] = Seconds(t_end - t0);
  v["setup_s"] = Seconds(t_run0 - t0);
  v["sim_s"] = Seconds(t_run1 - t_run0);
  v["peak_rss_mb"] = static_cast<double>(u4.maxrss_kib) / 1024.0;
  v["apps.construct_s"] = Seconds(t_app - t0);
  v["svm.build_s"] = Seconds(t_sys - t_app);
  v["apps.setup_s"] = Seconds(t_run0 - t_setup0);
  v["apps.verify_s"] = Seconds(t_verify - t_run1);
  v["svm.export_s"] = opt.observability ? Seconds(t_end - t_verify) : 0.0;
  v["svm.summary_mb"] = summary_mb;

  const int64_t events = sys.engine().events_processed();
  v["sim.events"] = static_cast<double>(events);
  PutReport(&v, sys.report());
  const hlrc::SpanTracer* spans = sys.spans();
  v["tracing.spans"] = spans == nullptr ? 0.0 : static_cast<double>(spans->spans().size());
  v["tracing.spans_dropped"] = spans == nullptr ? 0.0 : static_cast<double>(spans->dropped());

  PutPhase(&v, "setup", u0, u1);
  PutPhase(&v, "run", u1, u2);
  PutPhase(&v, "verify", u2, u3);
  PutPhase(&v, "export", u3, u4);
  v["host.run.allocs_per_event"] = Ratio(u2.allocs - u1.allocs, events);

  if (opt.traced) {
    const double core_s = Seconds(t_run1 - t_run0 - kernels.kernel_ns);
    v["apps.kernel_s"] = Seconds(kernels.kernel_ns);
    v["kernel_windows"] = static_cast<double>(kernels.windows);
    v["svm.grants"] = static_cast<double>(kernels.grants);
    v["svm.computes"] = static_cast<double>(kernels.computes);
    v["svm.syncs"] = static_cast<double>(kernels.syncs);
    v["mem.prot_changes"] = static_cast<double>(prot.changes);
    v["sim.core_s"] = core_s;
    v["sim.core_ns_per_event"] = events == 0 ? 0.0 : core_s * 1e9 / static_cast<double>(events);

    const int wall = log.Add("wall", -1, t0, t_end);
    log.Add("construct_app", wall, t0, t_app);
    log.Add("system_ctor", wall, t_app, t_sys);
    log.Add("app_setup", wall, t_setup0, t_run0);
    const int run = log.Add("system_run", wall, t_run0, t_run1);
    log.Add("app_verify", wall, t_run1, t_verify);
    if (opt.observability) {
      log.Add("write_run_summary", wall, t_verify, t_end);
    }
    if (!log.Write(SpanPath(w, opt), opt.seed, t0, run)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpanPath(w, opt).c_str());
      v["verified"] = 0;
    }
  }
  return v;
}

uint64_t ReportDigest(const hlrc::RunReport& r) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis.
  ForEachField(r, [&h](const int64_t& field) {
    const auto u = static_cast<uint64_t>(field);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xff;
      h *= 1099511628211ull;  // FNV prime.
    }
  });
  return (h ^ (h >> 52)) & ((1ull << 52) - 1);
}

}  // namespace perfbench
