// svmprof — offline analyzer for svmsim run-summary JSON files.
//
// Reads the versioned "hlrc-run-summary" JSON that `svmsim --metrics-out=`
// writes (schema: docs/OBSERVABILITY.md) and renders it for humans: run
// configuration, per-phase time breakdown, latency percentile tables, the
// hottest shared pages, and the traffic totals.
//
// The critpath and slowest commands read the file's causal span section and
// answer the question flat counters cannot: *what was each blocked operation
// actually waiting for?* Every page fault, lock acquire and barrier is a root
// span whose causal descendants — wire time, send queueing, retransmit
// stretches, home service, diff creation/application — are swept to
// attribute the root's wait, category by category, with the residue counted
// as protocol bookkeeping. The per-root categories sum exactly to the root's
// duration.
//
// Every file is validated on load: against the run-summary schema and, when
// it has a span section, for span-DAG well-formedness. A malformed file is a
// hard error so CI can use `svmprof --check` as a smoke gate.
//
//   svmprof run.json                       full report
//   svmprof run.json --top=40              widen the hot-page table
//   svmprof critpath run.json [--per-page] per-category / per-kind rollups
//   svmprof slowest run.json --top=10      slowest root operations
//   svmprof --check run.json               validate only (exit 0/1)
//   svmprof --diff a.json b.json           A/B comparison with percent deltas
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/metrics/json.h"
#include "src/metrics/run_summary_schema.h"
#include "src/tracing/critpath.h"
#include "src/tracing/span.h"
#include "src/tracing/span_check.h"

namespace hlrc {
namespace {

const ToolInfo kTool = {
    "svmprof",
    "Renders svmsim \"hlrc-run-summary\" JSON files for humans: run\n"
    "configuration, per-phase time breakdown, latency percentiles, hot\n"
    "pages and traffic totals. critpath and slowest attribute each blocked\n"
    "operation's wait (page faults, lock acquires, barriers) across the\n"
    "run's causal span DAG: wire time, queueing, retransmits, home service,\n"
    "diff work, bookkeeping, compute. Files are validated on load.",
    "  --top=N               rows in the hot-page table (default 20) or in\n"
    "                        the slowest / per-page tables (default 10)\n"
    "  --per-page            critpath: include the per-page fault table\n"
    "  --check               validate only (schema, plus span-DAG shape when\n"
    "                        the file has spans), exit 0/1\n"
    "  --diff                compare two runs with percent deltas (and their\n"
    "                        attributions when both have spans); exits 2\n"
    "                        when either input fails validation\n",
    "[critpath | slowest] RUN.json [flags] | --check RUN.json | --diff A.json B.json",
};

bool ReadFile(const std::string& path, std::string* out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *err = "cannot open " + path;
    return false;
  }
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    *err = "read error on " + path;
  }
  return ok;
}

struct Run {
  JsonValue doc;
  bool has_spans = false;
  std::vector<Span> spans;
  int64_t dropped = 0;  // Spans dropped at tracer capacity.
};

// Loads, parses, and schema-validates one run summary; when it has a span
// section (or `need_spans`, which makes a missing one an error), also
// extracts and DAG-checks the spans. Exits with `fail_exit` on failure so
// every code path downstream can assume a well-formed document. --diff
// passes 2: an invalid input there is a bad invocation, not a run-quality
// finding.
Run Load(const std::string& path, bool need_spans, int fail_exit = 1) {
  std::string text, err;
  if (!ReadFile(path, &text, &err)) {
    std::fprintf(stderr, "svmprof: %s\n", err.c_str());
    std::exit(fail_exit);
  }
  Run run;
  if (!ParseJson(text, &run.doc, &err)) {
    std::fprintf(stderr, "svmprof: %s: JSON parse error: %s\n", path.c_str(), err.c_str());
    std::exit(fail_exit);
  }
  if (!ValidateRunSummary(run.doc, &err)) {
    std::fprintf(stderr, "svmprof: %s: schema violation: %s\n", path.c_str(), err.c_str());
    std::exit(fail_exit);
  }
  run.has_spans = need_spans || run.doc.Find("spans") != nullptr;
  if (run.has_spans) {
    if (!ParseSpans(run.doc, &run.spans, &run.dropped, &err)) {
      std::fprintf(stderr, "svmprof: %s: %s\n", path.c_str(), err.c_str());
      std::exit(fail_exit);
    }
    if (!CheckSpanDag(run.spans, &err)) {
      std::fprintf(stderr, "svmprof: %s: span DAG violation: %s\n", path.c_str(), err.c_str());
      std::exit(fail_exit);
    }
  }
  return run;
}

double NsToUs(double ns) { return ns / 1000.0; }
double NsToMs(double ns) { return ns / 1e6; }
double NsToS(double ns) { return ns / 1e9; }

std::string Pct(double part, double whole) {
  if (whole <= 0.0) {
    return "-";
  }
  return Table::Fmt(100.0 * part / whole, 1) + "%";
}

std::string Delta(double a, double b) {
  if (a == 0.0 && b == 0.0) {
    return "-";
  }
  if (a == 0.0) {
    return "new";
  }
  const double pct = 100.0 * (b - a) / a;
  return (pct >= 0 ? "+" : "") + Table::Fmt(pct, 1) + "%";
}

// Average over the per_node array of one int field, in ns.
double PerNodeAvg(const JsonValue& run, const char* field) {
  const JsonValue* per_node = run.Find("per_node");
  if (per_node == nullptr || per_node->arr.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const JsonValue& n : per_node->arr) {
    sum += static_cast<double>(n.GetInt(field));
  }
  return sum / static_cast<double>(per_node->arr.size());
}

// ---------------------------------------------------------------------------
// Report.

void PrintHeader(const JsonValue& run) {
  const JsonValue* cfg = run.Find("config");
  const JsonValue* totals = run.Find("totals");
  std::printf("%s under %s on %lld nodes (%s scale, %lld B pages, seed %lld)\n",
              cfg->GetString("app").c_str(), cfg->GetString("protocol").c_str(),
              static_cast<long long>(cfg->GetInt("nodes")), cfg->GetString("scale").c_str(),
              static_cast<long long>(cfg->GetInt("page_size")),
              static_cast<long long>(cfg->GetInt("seed")));
  std::printf("virtual time: %s s   verified: %s",
              Table::Fmt(NsToS(static_cast<double>(totals->GetInt("virtual_time_ns"))), 3).c_str(),
              run.GetBool("verified") ? "yes" : "NO");
  if (cfg->GetBool("faults_active")) {
    std::printf("   faults: active");
  }
  if (cfg->GetBool("migrate_homes")) {
    std::printf("   migrate-homes: on");
  }
  std::printf("\n\n");
}

void PrintPhases(const JsonValue& run) {
  const double total = static_cast<double>(run.Find("totals")->GetInt("virtual_time_ns"));
  Table t("Per-phase time (average per node)");
  t.SetHeader({"Phase", "Avg (s)", "Of run"});
  const struct {
    const char* label;
    const char* field;
  } kPhases[] = {
      {"Computation", "compute_ns"},       {"Data transfer wait", "data_wait_ns"},
      {"Lock wait", "lock_wait_ns"},       {"Barrier wait", "barrier_wait_ns"},
      {"Garbage collection", "gc_ns"},     {"Protocol overhead", "proto_overhead_ns"},
  };
  for (const auto& p : kPhases) {
    const double ns = PerNodeAvg(run, p.field);
    t.AddRow({p.label, Table::Fmt(NsToS(ns), 3), Pct(ns, total)});
  }
  t.Print();
  std::printf("\n");
}

void PrintHistograms(const JsonValue& run) {
  const JsonValue* histos = run.Find("histograms");
  if (histos == nullptr || histos->obj.empty()) {
    std::printf("(no latency histograms recorded)\n\n");
    return;
  }
  Table t("Latency histograms (us)");
  t.SetHeader({"Metric", "Count", "Mean", "p50", "p90", "p99", "p99.9", "Max"});
  for (const auto& [name, h] : histos->obj) {
    const JsonValue* p = h.Find("percentiles");
    t.AddRow({name, Table::Fmt(h.GetInt("count")),
              Table::Fmt(NsToUs(h.GetDouble("mean")), 1),
              Table::Fmt(NsToUs(p->GetDouble("p50")), 1),
              Table::Fmt(NsToUs(p->GetDouble("p90")), 1),
              Table::Fmt(NsToUs(p->GetDouble("p99")), 1),
              Table::Fmt(NsToUs(p->GetDouble("p999")), 1),
              Table::Fmt(NsToUs(static_cast<double>(h.GetInt("max"))), 1)});
  }
  t.Print();
  std::printf("\n");
}

void PrintHotPages(const JsonValue& run, int64_t top) {
  const JsonValue* pages = run.Find("hot_pages");
  if (pages == nullptr || pages->arr.empty()) {
    std::printf("(no page heat recorded)\n\n");
    return;
  }
  Table t("Hottest shared pages");
  t.SetHeader({"Page", "Score", "RdFaults", "WrFaults", "Fetches", "FetchB", "DiffB", "Writers"});
  int64_t shown = 0;
  for (const JsonValue& p : pages->arr) {
    if (shown++ >= top) {
      break;
    }
    t.AddRow({Table::Fmt(p.GetInt("page")), Table::Fmt(p.GetInt("score")),
              Table::Fmt(p.GetInt("read_faults")), Table::Fmt(p.GetInt("write_faults")),
              Table::Fmt(p.GetInt("fetches")), Table::FmtBytes(p.GetInt("fetch_bytes")),
              Table::FmtBytes(p.GetInt("diff_bytes_applied")), Table::Fmt(p.GetInt("writers"))});
  }
  t.Print();
  if (static_cast<int64_t>(pages->arr.size()) > top) {
    std::printf("(%lld more hot pages in the file)\n",
                static_cast<long long>(static_cast<int64_t>(pages->arr.size()) - top));
  }
  std::printf("\n");
}

void PrintTraffic(const JsonValue& run) {
  const JsonValue* tr = run.Find("totals")->Find("traffic");
  Table t("Traffic totals");
  t.SetHeader({"Metric", "Value"});
  t.AddRow({"Messages sent", Table::Fmt(tr->GetInt("msgs_sent"))});
  t.AddRow({"Update traffic", Table::FmtBytes(tr->GetInt("update_bytes_sent"))});
  t.AddRow({"Protocol traffic", Table::FmtBytes(tr->GetInt("protocol_bytes_sent"))});
  if (tr->GetInt("msgs_retransmitted") > 0 || tr->GetInt("msgs_dropped_in_net") > 0) {
    t.AddRow({"Retransmissions", Table::Fmt(tr->GetInt("msgs_retransmitted"))});
    t.AddRow({"Dropped in net", Table::Fmt(tr->GetInt("msgs_dropped_in_net"))});
    t.AddRow({"Duplicates dropped", Table::Fmt(tr->GetInt("msgs_duplicated_dropped"))});
    t.AddRow({"Acks", Table::Fmt(tr->GetInt("acks_sent"))});
  }
  t.Print();
  std::printf("\n");
}

void PrintTimeseries(const JsonValue& run) {
  const JsonValue* ts = run.Find("timeseries");
  const size_t series = ts->Find("series")->arr.size();
  const size_t samples = ts->Find("samples")->arr.size();
  std::printf("time-series: %zu series x %zu samples every %s ms%s\n", series, samples,
              Table::Fmt(static_cast<double>(ts->GetInt("interval_ns")) / 1e6, 3).c_str(),
              ts->GetBool("truncated") ? " (truncated)" : "");
}

int Report(const std::string& path, int64_t top) {
  const Run run = Load(path, /*need_spans=*/false);
  PrintHeader(run.doc);
  PrintPhases(run.doc);
  PrintHistograms(run.doc);
  PrintHotPages(run.doc, top);
  PrintTraffic(run.doc);
  PrintTimeseries(run.doc);
  return 0;
}

// ---------------------------------------------------------------------------
// Critical-path attribution over the span DAG.

int64_t CountRoots(const std::vector<Span>& spans) {
  int64_t roots = 0;
  for (const Span& s : spans) {
    if (RootKindIndex(s.kind) >= 0) {
      ++roots;
    }
  }
  return roots;
}

void PrintSpanHeader(const Run& run, const std::string& path) {
  const JsonValue* cfg = run.doc.Find("config");
  std::printf("%s: %s under %s on %lld nodes — %zu spans (%lld blocking roots",
              path.c_str(), cfg->GetString("app").c_str(), cfg->GetString("protocol").c_str(),
              static_cast<long long>(cfg->GetInt("nodes")), run.spans.size(),
              static_cast<long long>(CountRoots(run.spans)));
  if (run.dropped > 0) {
    std::printf(", %lld dropped at capacity", static_cast<long long>(run.dropped));
  }
  std::printf(")\n\n");
}

int CritPath(const std::string& path, bool per_page, int64_t top) {
  const Run run = Load(path, /*need_spans=*/true);
  PrintSpanHeader(run, path);
  const CritPathSummary sum = AttributeCriticalPaths(run.spans);
  if (sum.roots.empty()) {
    std::printf("(no blocking roots recorded)\n");
    return 0;
  }

  Table t("Critical-path attribution (all blocking roots)");
  t.SetHeader({"Category", "Total (ms)", "Of wait", "Fault (ms)", "Lock (ms)", "Barrier (ms)"});
  for (size_t c = 0; c < kCritCatCount; ++c) {
    t.AddRow({CritCatName(static_cast<CritCat>(c)),
              Table::Fmt(NsToMs(static_cast<double>(sum.total[c])), 3),
              Pct(static_cast<double>(sum.total[c]), static_cast<double>(sum.total_wait)),
              Table::Fmt(NsToMs(static_cast<double>(sum.by_kind[0][c])), 3),
              Table::Fmt(NsToMs(static_cast<double>(sum.by_kind[1][c])), 3),
              Table::Fmt(NsToMs(static_cast<double>(sum.by_kind[2][c])), 3)});
  }
  t.AddSeparator();
  SimTime fault_wait = 0, lock_wait = 0, barrier_wait = 0;
  for (size_t c = 0; c < kCritCatCount; ++c) {
    fault_wait += sum.by_kind[0][c];
    lock_wait += sum.by_kind[1][c];
    barrier_wait += sum.by_kind[2][c];
  }
  t.AddRow({"total wait", Table::Fmt(NsToMs(static_cast<double>(sum.total_wait)), 3), "100%",
            Table::Fmt(NsToMs(static_cast<double>(fault_wait)), 3),
            Table::Fmt(NsToMs(static_cast<double>(lock_wait)), 3),
            Table::Fmt(NsToMs(static_cast<double>(barrier_wait)), 3)});
  t.Print();
  std::printf("\n");

  if (per_page) {
    // Pages ordered by total fault wait, widest first.
    std::vector<std::pair<int64_t, SimTime>> pages(sum.page_wait.begin(), sum.page_wait.end());
    std::sort(pages.begin(), pages.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    Table p("Per-page fault wait");
    p.SetHeader({"Page", "Wait (ms)", "Wire", "Queue", "Retx", "HomeSvc", "DiffC", "DiffA",
                 "Bookkeep"});
    int64_t shown = 0;
    for (const auto& [page, wait] : pages) {
      if (shown++ >= top) {
        break;
      }
      const CatTimes& c = sum.by_page.at(page);
      auto pc = [&](CritCat cat) {
        return Pct(static_cast<double>(c[static_cast<size_t>(cat)]), static_cast<double>(wait));
      };
      p.AddRow({Table::Fmt(page), Table::Fmt(NsToMs(static_cast<double>(wait)), 3),
                pc(CritCat::kWire), pc(CritCat::kQueueing), pc(CritCat::kRetransmit),
                pc(CritCat::kHomeService), pc(CritCat::kDiffCreate), pc(CritCat::kDiffApply),
                pc(CritCat::kBookkeeping)});
    }
    p.Print();
    if (static_cast<int64_t>(pages.size()) > top) {
      std::printf("(%lld more pages; raise --top)\n",
                  static_cast<long long>(static_cast<int64_t>(pages.size()) - top));
    }
    std::printf("\n");
  }
  return 0;
}

int Slowest(const std::string& path, int64_t top) {
  const Run run = Load(path, /*need_spans=*/true);
  PrintSpanHeader(run, path);
  CritPathSummary sum = AttributeCriticalPaths(run.spans);
  std::sort(sum.roots.begin(), sum.roots.end(), [](const RootAttribution& a,
                                                   const RootAttribution& b) {
    return (a.t1 - a.t0) != (b.t1 - b.t0) ? (a.t1 - a.t0) > (b.t1 - b.t0) : a.id < b.id;
  });
  Table t("Slowest blocking operations");
  t.SetHeader({"Span", "Kind", "Node", "Arg", "Start (ms)", "Wait (us)", "Top category"});
  int64_t shown = 0;
  for (const RootAttribution& r : sum.roots) {
    if (shown++ >= top) {
      break;
    }
    size_t best = static_cast<size_t>(CritCat::kBookkeeping);
    for (size_t c = 0; c < kCritCatCount; ++c) {
      if (r.by_cat[c] > r.by_cat[best]) {
        best = c;
      }
    }
    const SimTime wait = r.t1 - r.t0;
    t.AddRow({Table::Fmt(r.id), SpanKindName(r.kind), Table::Fmt(static_cast<int64_t>(r.node)),
              Table::Fmt(r.a0), Table::Fmt(NsToMs(static_cast<double>(r.t0)), 3),
              Table::Fmt(NsToUs(static_cast<double>(wait)), 1),
              std::string(CritCatName(static_cast<CritCat>(best))) + " (" +
                  Pct(static_cast<double>(r.by_cat[best]), static_cast<double>(wait)) + ")"});
  }
  t.Print();
  if (static_cast<int64_t>(sum.roots.size()) > top) {
    std::printf("(%lld more roots; raise --top)\n",
                static_cast<long long>(static_cast<int64_t>(sum.roots.size()) - top));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Validation and A/B diff.

int Check(const std::string& path) {
  const Run run = Load(path, /*need_spans=*/false);  // Exits nonzero on any violation.
  std::printf("%s: OK (schema %s v%d", path.c_str(), kRunSummarySchemaName,
              kRunSummarySchemaVersion);
  if (run.has_spans) {
    std::printf("; %s v%d: %zu spans, %lld blocking roots, %lld dropped", kSpansSchemaName,
                kSpansSchemaVersion, run.spans.size(),
                static_cast<long long>(CountRoots(run.spans)),
                static_cast<long long>(run.dropped));
  }
  std::printf(")\n");
  return 0;
}

void PrintCritPathDiff(const Run& a, const Run& b) {
  const CritPathSummary sa = AttributeCriticalPaths(a.spans);
  const CritPathSummary sb = AttributeCriticalPaths(b.spans);
  Table t("Critical-path comparison (B vs A, ms)");
  t.SetHeader({"Category", "A", "B", "Delta"});
  for (size_t c = 0; c < kCritCatCount; ++c) {
    const double va = static_cast<double>(sa.total[c]);
    const double vb = static_cast<double>(sb.total[c]);
    t.AddRow({CritCatName(static_cast<CritCat>(c)), Table::Fmt(NsToMs(va), 3),
              Table::Fmt(NsToMs(vb), 3), Delta(va, vb)});
  }
  t.AddSeparator();
  t.AddRow({"total wait", Table::Fmt(NsToMs(static_cast<double>(sa.total_wait)), 3),
            Table::Fmt(NsToMs(static_cast<double>(sb.total_wait)), 3),
            Delta(static_cast<double>(sa.total_wait), static_cast<double>(sb.total_wait))});
  t.AddRow({"blocking roots", Table::Fmt(static_cast<int64_t>(sa.roots.size())),
            Table::Fmt(static_cast<int64_t>(sb.roots.size())),
            Delta(static_cast<double>(sa.roots.size()), static_cast<double>(sb.roots.size()))});
  t.Print();
}

int Diff(const std::string& path_a, const std::string& path_b) {
  const Run run_a = Load(path_a, /*need_spans=*/false, /*fail_exit=*/2);
  const Run run_b = Load(path_b, /*need_spans=*/false, /*fail_exit=*/2);
  const JsonValue& a = run_a.doc;
  const JsonValue& b = run_b.doc;

  const JsonValue* ca = a.Find("config");
  const JsonValue* cb = b.Find("config");
  std::printf("A: %s  (%s/%s, %lld nodes)\n", path_a.c_str(), ca->GetString("app").c_str(),
              ca->GetString("protocol").c_str(), static_cast<long long>(ca->GetInt("nodes")));
  std::printf("B: %s  (%s/%s, %lld nodes)\n\n", path_b.c_str(), cb->GetString("app").c_str(),
              cb->GetString("protocol").c_str(), static_cast<long long>(cb->GetInt("nodes")));

  Table t("Run comparison (B vs A)");
  t.SetHeader({"Metric", "A", "B", "Delta"});

  auto row_s = [&](const char* label, double va, double vb) {
    t.AddRow({label, Table::Fmt(NsToS(va), 3), Table::Fmt(NsToS(vb), 3), Delta(va, vb)});
  };
  auto row_i = [&](const char* label, int64_t va, int64_t vb) {
    t.AddRow({label, Table::Fmt(va), Table::Fmt(vb),
              Delta(static_cast<double>(va), static_cast<double>(vb))});
  };

  row_s("Virtual time (s)", static_cast<double>(a.Find("totals")->GetInt("virtual_time_ns")),
        static_cast<double>(b.Find("totals")->GetInt("virtual_time_ns")));
  const struct {
    const char* label;
    const char* field;
  } kPhases[] = {
      {"Computation (avg s)", "compute_ns"},     {"Data wait (avg s)", "data_wait_ns"},
      {"Lock wait (avg s)", "lock_wait_ns"},     {"Barrier wait (avg s)", "barrier_wait_ns"},
      {"GC (avg s)", "gc_ns"},                   {"Proto overhead (avg s)", "proto_overhead_ns"},
  };
  for (const auto& p : kPhases) {
    row_s(p.label, PerNodeAvg(a, p.field), PerNodeAvg(b, p.field));
  }
  t.AddSeparator();
  const JsonValue* ta = a.Find("totals")->Find("traffic");
  const JsonValue* tb = b.Find("totals")->Find("traffic");
  row_i("Messages", ta->GetInt("msgs_sent"), tb->GetInt("msgs_sent"));
  row_i("Update bytes", ta->GetInt("update_bytes_sent"), tb->GetInt("update_bytes_sent"));
  row_i("Protocol bytes", ta->GetInt("protocol_bytes_sent"), tb->GetInt("protocol_bytes_sent"));
  const JsonValue* pa = a.Find("totals")->Find("proto");
  const JsonValue* pb = b.Find("totals")->Find("proto");
  row_i("Page fetches", pa->GetInt("page_fetches"), pb->GetInt("page_fetches"));
  row_i("Diffs created", pa->GetInt("diffs_created"), pb->GetInt("diffs_created"));
  row_i("Diffs applied", pa->GetInt("diffs_applied"), pb->GetInt("diffs_applied"));
  t.Print();
  std::printf("\n");

  // Histogram tails for metrics present in both runs.
  const JsonValue* ha = a.Find("histograms");
  const JsonValue* hb = b.Find("histograms");
  Table h("Latency deltas, us (B vs A)");
  h.SetHeader({"Metric", "p50 A", "p50 B", "d p50", "p99 A", "p99 B", "d p99"});
  bool any = false;
  for (const auto& [name, va] : ha->obj) {
    const JsonValue* vb = hb->Find(name);
    if (vb == nullptr) {
      continue;
    }
    any = true;
    const JsonValue* qa = va.Find("percentiles");
    const JsonValue* qb = vb->Find("percentiles");
    h.AddRow({name, Table::Fmt(NsToUs(qa->GetDouble("p50")), 1),
              Table::Fmt(NsToUs(qb->GetDouble("p50")), 1),
              Delta(qa->GetDouble("p50"), qb->GetDouble("p50")),
              Table::Fmt(NsToUs(qa->GetDouble("p99")), 1),
              Table::Fmt(NsToUs(qb->GetDouble("p99")), 1),
              Delta(qa->GetDouble("p99"), qb->GetDouble("p99"))});
  }
  if (any) {
    h.Print();
  } else {
    std::printf("(no histogram present in both runs)\n");
  }
  if (run_a.has_spans && run_b.has_spans) {
    std::printf("\n");
    PrintCritPathDiff(run_a, run_b);
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> positional;
  bool check_only = false;
  bool diff = false;
  bool per_page = false;
  int64_t top = 0;  // 0: the command's default.
  for (int i = 1; i < argc; ++i) {
    const FlagArg f(argv[i], [](const std::string& m) { UsageError(kTool, m); });
    const std::string& arg = f.arg();
    if (arg == "--check") {
      check_only = true;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--per-page") {
      per_page = true;
    } else if (f.Int("--top=", &top, 1)) {
    } else if (!arg.empty() && arg[0] == '-') {
      if (!HandleCommonFlag(kTool, arg)) {
        UsageError(kTool, "unknown flag: " + arg);
      }
    } else {
      positional.push_back(arg);
    }
  }
  if (diff) {
    if (check_only || positional.size() != 2) {
      UsageError(kTool, "--diff takes exactly two run files");
    }
    return Diff(positional[0], positional[1]);
  }
  if (check_only) {
    if (positional.size() != 1) {
      UsageError(kTool, "--check takes exactly one run file");
    }
    return Check(positional[0]);
  }
  if (!positional.empty() && (positional[0] == "critpath" || positional[0] == "slowest")) {
    if (positional.size() != 2) {
      UsageError(kTool, positional[0] + " takes exactly one run file");
    }
    if (positional[0] == "critpath") {
      return CritPath(positional[1], per_page, top > 0 ? top : 10);
    }
    return Slowest(positional[1], top > 0 ? top : 10);
  }
  if (positional.size() != 1) {
    UsageError(kTool, "exactly one run file required");
  }
  return Report(positional[0], top > 0 ? top : 20);
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
