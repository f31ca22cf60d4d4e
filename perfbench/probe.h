// perfbench — outside-in host benchmark of the simulator (see README.md).
//
// This header is the part of the benchmark that runs inside one child
// process: the workload table, one complete timed run through the public API
// (MakeApp -> System -> App::Setup -> System::Run -> App::Verify, then
// WriteRunSummaryJson where the workload asks for it), and the RunReport
// digest that every run is checked against.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/svm/system.h"

namespace perfbench {

struct Workload {
  const char* name;
  const char* app;  // MakeApp name.
  hlrc::ProtocolKind protocol;
  int nodes;
  // Metrics and spans on, run summary written (what `svmsim --metrics-out`
  // does).
  bool observability;
};

// The benchmark's workloads, all at svmsim's default scale.
const std::vector<Workload>& Workloads();
// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

// svmsim's name for a scale.
const char* ScaleName(hlrc::AppScale scale);

struct RunOptions {
  hlrc::AppScale scale = hlrc::AppScale::kDefault;
  uint64_t seed = 1;
  // Install the benchmark's WorkloadObserver (kernel windows) and
  // CoverageObserver (protection changes) and write the run's spans to
  // `out_dir` at the end.
  bool traced = false;
  // Metrics and spans on plus the summary export; normally the workload's
  // own setting.
  bool observability = false;
  // Where the run summary and the span file go.
  std::string out_dir = ".";
};

// Named measurements of one run: host times in seconds, sizes in MiB, and
// counts. Keys are the metric names of README.md plus a few raw inputs of
// the derived metrics (kernel_windows, verified, run_s).
using Values = std::map<std::string, double>;

// Runs `w` once in this process and measures it. A failed verification or
// export is reported as verified = 0; a protocol failure aborts the process.
Values RunOnce(const Workload& w, const RunOptions& opt);

// Where a traced run writes its spans.
std::string SpanPath(const Workload& w, const RunOptions& opt);

// Calls f(field) for every int64 value field of the report: virtual time,
// app memory, and each node's (and each phase snapshot's) busy and wait
// breakdowns, ProtoStats and TrafficStats with msgs_by_type. `Report` is
// RunReport or const RunReport. The engine's event count is not in the
// report: the metrics sampler's own ticks raise it.
template <typename Report, typename F>
void ForEachField(Report& r, F&& f);

// FNV-1a over ForEachField, folded to 52 bits so it is exact as a JSON
// number.
uint64_t ReportDigest(const hlrc::RunReport& r);

// Heap allocations made through the global operator new since process start
// (alloc_count.cc).
int64_t AllocCount();
int64_t AllocBytes();

// One timed pass of the fixed reference kernel (calibrate.cc): dependent
// cache misses, std::map churn, a small matrix product, and fresh pages
// filled and copied. `check` depends only on the kernel, so it repeats
// exactly.
struct Calibration {
  double seconds = 0;
  uint64_t check = 0;
};
Calibration Calibrate();

// ---------------------------------------------------------------------------

template <typename Node, typename F>
void ForEachNodeField(Node& n, F& f) {
  f(n.finish_time);
  for (auto& v : n.cpu_busy.by_cat) f(v);
  for (auto& v : n.cop_busy.by_cat) f(v);
  for (auto& v : n.waits.by_cat) f(v);
  auto& p = n.proto;
  f(p.read_misses);
  f(p.write_faults);
  f(p.page_fetches);
  f(p.diffs_created);
  f(p.diffs_applied);
  f(p.diff_requests_sent);
  f(p.lock_acquires);
  f(p.remote_acquires);
  f(p.barriers);
  f(p.intervals_closed);
  f(p.write_notices_received);
  f(p.pages_invalidated);
  f(p.gc_runs);
  f(p.page_replies_combined);
  for (auto& v : p.waits.by_cat) f(v);
  f(p.proto_mem_highwater);
  f(p.interval_meta_highwater);
  auto& t = n.traffic;
  f(t.msgs_sent);
  f(t.msgs_received);
  f(t.update_bytes_sent);
  f(t.protocol_bytes_sent);
  for (auto& v : t.msgs_by_type) f(v);
  f(t.msgs_retransmitted);
  f(t.msgs_dropped_in_net);
  f(t.msgs_duplicated_dropped);
  f(t.acks_sent);
  f(t.frames_coalesced);
  f(t.msgs_coalesced);
  f(t.acks_piggybacked);
  f(n.proto_mem_highwater);
}

template <typename Report, typename F>
void ForEachField(Report& r, F&& f) {
  f(r.total_time);
  f(r.app_memory_bytes);
  for (auto& n : r.nodes) ForEachNodeField(n, f);
  for (auto& [key, n] : r.phases) ForEachNodeField(n, f);
}

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
