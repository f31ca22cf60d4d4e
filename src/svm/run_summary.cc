#include "src/svm/run_summary.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/metrics/json_writer.h"
#include "src/metrics/metrics.h"
#include "src/metrics/run_summary_schema.h"
#include "src/svm/system.h"
#include "src/tracing/span.h"

namespace hlrc {

namespace {

constexpr size_t kHotPageLimit = 32;

void WriteConfig(JsonWriter& w, const System& sys, const RunSummaryMeta& meta) {
  const SimConfig& c = sys.config();
  w.Key("config");
  w.BeginObject();
  w.KV("app", meta.app.empty() ? "custom" : meta.app);
  w.KV("scale", meta.scale.empty() ? "default" : meta.scale);
  w.KV("protocol", ProtocolName(c.protocol.kind));
  w.KV("nodes", c.nodes);
  w.KV("page_size", c.page_size);
  w.KV("shared_bytes", c.shared_bytes);
  w.KV("seed", static_cast<int64_t>(c.seed));
  w.KV("home_policy", HomePolicyName(c.protocol.home_policy));
  w.KV("diff_policy", DiffPolicyName(c.protocol.diff_policy));
  w.KV("migrate_homes", c.protocol.migrate_homes);
  w.KV("faults_active", c.fault.Active());
  w.KV("reliable_delivery", c.reliability.enabled);
  w.EndObject();
}

void WriteProtoTotals(JsonWriter& w, const NodeReport& t) {
  w.Key("proto");
  w.BeginObject();
  w.KV("read_misses", t.proto.read_misses);
  w.KV("write_faults", t.proto.write_faults);
  w.KV("page_fetches", t.proto.page_fetches);
  w.KV("diffs_created", t.proto.diffs_created);
  w.KV("diffs_applied", t.proto.diffs_applied);
  w.KV("diff_requests_sent", t.proto.diff_requests_sent);
  w.KV("lock_acquires", t.proto.lock_acquires);
  w.KV("remote_acquires", t.proto.remote_acquires);
  w.KV("barriers", t.proto.barriers);
  w.KV("intervals_closed", t.proto.intervals_closed);
  w.KV("write_notices_received", t.proto.write_notices_received);
  w.KV("pages_invalidated", t.proto.pages_invalidated);
  w.KV("gc_runs", t.proto.gc_runs);
  w.KV("proto_mem_highwater", t.proto_mem_highwater);
  w.EndObject();
}

void WriteTrafficTotals(JsonWriter& w, const NodeReport& t) {
  w.Key("traffic");
  w.BeginObject();
  w.KV("msgs_sent", t.traffic.msgs_sent);
  w.KV("msgs_received", t.traffic.msgs_received);
  w.KV("update_bytes_sent", t.traffic.update_bytes_sent);
  w.KV("protocol_bytes_sent", t.traffic.protocol_bytes_sent);
  w.KV("msgs_retransmitted", t.traffic.msgs_retransmitted);
  w.KV("msgs_dropped_in_net", t.traffic.msgs_dropped_in_net);
  w.KV("msgs_duplicated_dropped", t.traffic.msgs_duplicated_dropped);
  w.KV("acks_sent", t.traffic.acks_sent);
  w.Key("msgs_by_type");
  w.BeginObject();
  for (size_t i = 0; i < t.traffic.msgs_by_type.size(); ++i) {
    if (t.traffic.msgs_by_type[i] > 0) {
      w.KV(MsgTypeName(static_cast<MsgType>(i)), t.traffic.msgs_by_type[i]);
    }
  }
  w.EndObject();
  w.EndObject();
}

void WritePerNode(JsonWriter& w, const RunReport& report) {
  w.Key("per_node");
  w.BeginArray();
  for (size_t n = 0; n < report.nodes.size(); ++n) {
    const NodeReport& r = report.nodes[n];
    w.BeginObject();
    w.KV("node", static_cast<int64_t>(n));
    w.KV("finish_ns", r.finish_time);
    w.KV("compute_ns", r.Computation());
    w.KV("data_wait_ns", r.DataTransfer());
    w.KV("lock_wait_ns", r.LockTime());
    w.KV("barrier_wait_ns", r.BarrierTime());
    w.KV("gc_ns", r.GcTime());
    w.KV("proto_overhead_ns", r.ProtocolOverhead());
    w.KV("cop_busy_ns", r.cop_busy.Total());
    w.KV("msgs_sent", r.traffic.msgs_sent);
    w.KV("update_bytes_sent", r.traffic.update_bytes_sent);
    w.KV("protocol_bytes_sent", r.traffic.protocol_bytes_sent);
    w.KV("proto_mem_highwater", r.proto_mem_highwater);
    w.EndObject();
  }
  w.EndArray();
}

void WriteCounters(JsonWriter& w, const MetricsRegistry& reg) {
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, per_node] : reg.counters()) {
    w.Key(name);
    w.BeginObject();
    int64_t total = 0;
    w.Key("per_node");
    w.BeginArray();
    for (int64_t v : *per_node) {
      w.Int(v);
      total += v;
    }
    w.EndArray();
    w.KV("total", total);
    w.EndObject();
  }
  w.EndObject();
}

void WriteHistograms(JsonWriter& w, const MetricsRegistry& reg) {
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, per_node] : reg.histograms()) {
    const Histogram merged = reg.MergedHisto(name);
    if (merged.Empty()) {
      continue;  // Never-recorded instruments would only bloat the file.
    }
    w.Key(name);
    w.BeginObject();
    w.KV("count", merged.Count());
    w.KV("sum", merged.Sum());
    w.KV("min", merged.Min());
    w.KV("max", merged.Max());
    w.KV("mean", merged.Mean());
    w.Key("percentiles");
    w.BeginObject();
    w.KV("p50", merged.Percentile(50));
    w.KV("p90", merged.Percentile(90));
    w.KV("p99", merged.Percentile(99));
    w.KV("p999", merged.Percentile(99.9));
    w.EndObject();
    w.Key("buckets");
    w.BeginArray();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const int64_t n = merged.buckets()[static_cast<size_t>(b)];
      if (n == 0) {
        continue;
      }
      w.BeginObject();
      w.KV("lo", Histogram::BucketLow(b));
      w.KV("hi", Histogram::BucketHigh(b));
      w.KV("count", n);
      w.EndObject();
    }
    w.EndArray();
    w.Key("per_node_counts");
    w.BeginArray();
    for (const Histogram& h : *per_node) {
      w.Int(h.Count());
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
}

void WriteTimeseries(JsonWriter& w, const Sampler& sampler) {
  w.Key("timeseries");
  w.BeginObject();
  w.KV("interval_ns", sampler.interval());
  w.KV("truncated", sampler.truncated());
  w.Key("series");
  w.BeginArray();
  for (const Sampler::SeriesInfo& s : sampler.series()) {
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("node", s.node);
    w.EndObject();
  }
  w.EndArray();
  w.Key("samples");
  w.BeginArray();
  for (const Sampler::Sample& s : sampler.samples()) {
    w.BeginObject();
    w.KV("t_ns", s.time);
    w.Key("v");
    w.BeginArray();
    for (double v : s.values) {
      w.Double(v);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void WriteHotPages(JsonWriter& w, const PageHeatProfiler& heat) {
  w.Key("hot_pages");
  w.BeginArray();
  for (const PageHeatProfiler::HotPage& hp : heat.TopN(kHotPageLimit)) {
    w.BeginObject();
    w.KV("page", hp.page);
    w.KV("score", hp.heat.Score());
    w.KV("read_faults", hp.heat.read_faults);
    w.KV("write_faults", hp.heat.write_faults);
    w.KV("fetches", hp.heat.fetches);
    w.KV("fetch_bytes", hp.heat.fetch_bytes);
    w.KV("diff_bytes_created", hp.heat.diff_bytes_created);
    w.KV("diffs_applied", hp.heat.diffs_applied);
    w.KV("diff_bytes_applied", hp.heat.diff_bytes_applied);
    w.KV("writers", static_cast<int64_t>(hp.heat.Writers()));
    w.EndObject();
  }
  w.EndArray();
}

// The one body behind both entry points: the document goes to whatever sink
// `w` has.
void WriteRunSummary(JsonWriter& w, const System& sys, const RunSummaryMeta& meta) {
  const Metrics* metrics = sys.metrics();
  HLRC_CHECK_MSG(metrics != nullptr,
                 "the run summary requires System::EnableMetrics before the run");
  const RunReport& report = sys.report();

  w.BeginObject();
  w.KV("schema", kRunSummarySchemaName);
  w.KV("version", kRunSummarySchemaVersion);
  WriteConfig(w, sys, meta);
  w.KV("verified", meta.verified);
  if (meta.coverage.enabled) {
    w.Key("coverage");
    w.BeginObject();
    w.KV("points", meta.coverage.points);
    w.KV("hits", meta.coverage.hits);
    w.Key("domains");
    w.BeginObject();
    for (int d = 0; d < CoverageObserver::kDomains; ++d) {
      w.KV(CoverageDomainName(static_cast<CoverageObserver::Domain>(d)),
           meta.coverage.domain_points[static_cast<size_t>(d)]);
    }
    w.EndObject();
    w.EndObject();
  }

  const NodeReport totals = report.Totals();
  w.Key("totals");
  w.BeginObject();
  w.KV("virtual_time_ns", report.total_time);
  w.KV("app_memory_bytes", report.app_memory_bytes);
  WriteProtoTotals(w, totals);
  WriteTrafficTotals(w, totals);
  w.EndObject();

  WritePerNode(w, report);
  WriteCounters(w, metrics->registry());
  WriteHistograms(w, metrics->registry());
  WriteTimeseries(w, metrics->sampler());
  WriteHotPages(w, metrics->heat());
  if (sys.spans() != nullptr) {
    WriteSpansJson(&w, *sys.spans());
  }
  w.EndObject();
}

}  // namespace

std::string RunSummaryJson(const System& sys, const RunSummaryMeta& meta) {
  JsonWriter w;
  WriteRunSummary(w, sys, meta);
  return w.str();
}

bool WriteRunSummaryJson(const std::string& path, const System& sys,
                         const RunSummaryMeta& meta, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) {
      *err = "cannot open " + path + " for writing";
    }
    return false;
  }
  JsonWriter w(f);
  WriteRunSummary(w, sys, meta);
  const bool written = w.Flush() && std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || !written) {
    if (err != nullptr) {
      *err = "short write to " + path;
    }
    return false;
  }
  return true;
}

}  // namespace hlrc
