#include "src/metrics/run_summary_schema.h"

#include <cstdio>

namespace hlrc {

namespace {

bool Fail(std::string* err, const std::string& msg) {
  if (err != nullptr) {
    *err = msg;
  }
  return false;
}

bool RequireObject(const JsonValue& root, const std::string& key, const JsonValue** out,
                   std::string* err) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr || !v->IsObject()) {
    return Fail(err, "missing or non-object field: " + key);
  }
  *out = v;
  return true;
}

bool RequireArray(const JsonValue& root, const std::string& key, const JsonValue** out,
                  std::string* err) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr || !v->IsArray()) {
    return Fail(err, "missing or non-array field: " + key);
  }
  *out = v;
  return true;
}

bool RequireInt(const JsonValue& root, const std::string& key, int64_t min_value,
                std::string* err) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr || !v->IsNumber()) {
    return Fail(err, "missing or non-numeric field: " + key);
  }
  if (v->AsInt() < min_value) {
    return Fail(err, "field out of range: " + key);
  }
  return true;
}

bool ValidateHistogram(const std::string& name, const JsonValue& h, int64_t nodes,
                       std::string* err) {
  const std::string where = "histogram " + name + ": ";
  if (!h.IsObject()) {
    return Fail(err, where + "not an object");
  }
  for (const char* k : {"count", "sum", "min", "max"}) {
    if (!RequireInt(h, k, 0, err)) {
      return Fail(err, where + *err);
    }
  }
  const int64_t count = h.GetInt("count");
  if (count > 0 && h.GetInt("min") > h.GetInt("max")) {
    return Fail(err, where + "min > max");
  }
  const JsonValue* pct;
  if (!RequireObject(h, "percentiles", &pct, err)) {
    return Fail(err, where + *err);
  }
  double prev = -1.0;
  for (const char* k : {"p50", "p90", "p99", "p999"}) {
    const JsonValue* p = pct->Find(k);
    if (p == nullptr || !p->IsNumber()) {
      return Fail(err, where + "missing percentile " + k);
    }
    if (p->AsDouble() < prev) {
      return Fail(err, where + "percentiles not monotone at " + k);
    }
    prev = p->AsDouble();
  }
  const JsonValue* buckets;
  if (!RequireArray(h, "buckets", &buckets, err)) {
    return Fail(err, where + *err);
  }
  int64_t bucket_total = 0;
  int64_t prev_hi = -1;
  for (const JsonValue& b : buckets->arr) {
    if (!b.IsObject()) {
      return Fail(err, where + "bucket is not an object");
    }
    const int64_t lo = b.GetInt("lo", -1);
    const int64_t hi = b.GetInt("hi", -1);
    const int64_t n = b.GetInt("count", -1);
    if (lo < 0 || hi < lo || n <= 0) {
      return Fail(err, where + "malformed bucket");
    }
    if (lo <= prev_hi) {
      return Fail(err, where + "buckets not ascending");
    }
    prev_hi = hi;
    bucket_total += n;
  }
  if (bucket_total != count) {
    return Fail(err, where + "bucket counts do not sum to count");
  }
  const JsonValue* per_node;
  if (!RequireArray(h, "per_node_counts", &per_node, err)) {
    return Fail(err, where + *err);
  }
  if (static_cast<int64_t>(per_node->arr.size()) != nodes) {
    return Fail(err, where + "per_node_counts length != nodes");
  }
  int64_t node_total = 0;
  for (const JsonValue& v : per_node->arr) {
    if (!v.IsNumber() || v.AsInt() < 0) {
      return Fail(err, where + "malformed per_node_counts entry");
    }
    node_total += v.AsInt();
  }
  if (node_total != count) {
    return Fail(err, where + "per_node_counts do not sum to count");
  }
  return true;
}

bool ValidateTimeseries(const JsonValue& ts, std::string* err) {
  if (!RequireInt(ts, "interval_ns", 1, err)) {
    return false;
  }
  const JsonValue* series;
  const JsonValue* samples;
  if (!RequireArray(ts, "series", &series, err) ||
      !RequireArray(ts, "samples", &samples, err)) {
    return false;
  }
  for (const JsonValue& s : series->arr) {
    if (!s.IsObject() || s.Find("name") == nullptr || !s.Find("name")->IsString() ||
        s.Find("node") == nullptr || !s.Find("node")->IsNumber()) {
      return Fail(err, "timeseries: malformed series entry");
    }
  }
  int64_t prev_t = -1;
  for (const JsonValue& s : samples->arr) {
    if (!s.IsObject()) {
      return Fail(err, "timeseries: sample is not an object");
    }
    const JsonValue* t = s.Find("t_ns");
    if (t == nullptr || !t->IsNumber() || t->AsInt() < 0) {
      return Fail(err, "timeseries: malformed sample time");
    }
    if (t->AsInt() <= prev_t) {
      return Fail(err, "timeseries: sample times not strictly increasing");
    }
    prev_t = t->AsInt();
    const JsonValue* v = s.Find("v");
    if (v == nullptr || !v->IsArray() || v->arr.size() != series->arr.size()) {
      return Fail(err, "timeseries: sample value count != series count");
    }
    for (const JsonValue& x : v->arr) {
      if (!x.IsNumber()) {
        return Fail(err, "timeseries: non-numeric sample value");
      }
    }
  }
  return true;
}

bool ValidateHotPages(const JsonValue& hot, std::string* err) {
  int64_t prev_score = -1;
  bool first = true;
  for (const JsonValue& p : hot.arr) {
    if (!p.IsObject()) {
      return Fail(err, "hot_pages: entry is not an object");
    }
    for (const char* k : {"page", "score", "read_faults", "write_faults", "fetches",
                          "fetch_bytes", "diff_bytes_created", "diffs_applied",
                          "diff_bytes_applied", "writers"}) {
      if (!RequireInt(p, k, 0, err)) {
        return Fail(err, "hot_pages: " + *err);
      }
    }
    const int64_t score = p.GetInt("score");
    if (score <= 0) {
      return Fail(err, "hot_pages: zero-score page exported");
    }
    if (!first && score > prev_score) {
      return Fail(err, "hot_pages: not sorted by descending score");
    }
    first = false;
    prev_score = score;
  }
  return true;
}

}  // namespace

bool ValidateRunSummary(const JsonValue& root, std::string* err) {
  if (!root.IsObject()) {
    return Fail(err, "top-level value is not an object");
  }
  if (root.GetString("schema") != kRunSummarySchemaName) {
    return Fail(err, "schema field is not \"" + std::string(kRunSummarySchemaName) + "\"");
  }
  if (root.GetInt("version") != kRunSummarySchemaVersion) {
    return Fail(err, "unsupported schema version");
  }

  const JsonValue* config;
  if (!RequireObject(root, "config", &config, err)) {
    return false;
  }
  if (config->GetString("app").empty() || config->GetString("protocol").empty()) {
    return Fail(err, "config: missing app or protocol name");
  }
  if (!RequireInt(*config, "nodes", 1, err) || !RequireInt(*config, "page_size", 1, err)) {
    return false;
  }
  const int64_t nodes = config->GetInt("nodes");

  const JsonValue* verified = root.Find("verified");
  if (verified == nullptr || !verified->IsBool()) {
    return Fail(err, "missing or non-boolean field: verified");
  }

  // Optional protocol-state coverage block (svmsim --coverage, svmfuzz).
  const JsonValue* coverage = root.Find("coverage");
  if (coverage != nullptr) {
    if (!coverage->IsObject() || !RequireInt(*coverage, "points", 0, err) ||
        !RequireInt(*coverage, "hits", 0, err)) {
      return Fail(err, "coverage: malformed object");
    }
    const JsonValue* domains;
    if (!RequireObject(*coverage, "domains", &domains, err)) {
      return false;
    }
    for (const auto& [name, pts] : domains->obj) {
      if (!pts.IsNumber() || !pts.is_int || pts.num_i < 0) {
        return Fail(err, "coverage.domains." + name + ": not a non-negative integer");
      }
    }
  }

  // Optional causal-span section (svmsim --metrics-out records spans; see
  // src/tracing). Structural checks only — this layer sits below src/tracing,
  // so kind names and DAG well-formedness are checked by ParseSpans /
  // CheckSpanDag (svmprof --check).
  const JsonValue* spans = root.Find("spans");
  if (spans != nullptr) {
    if (!spans->IsObject() || spans->GetString("schema") != "hlrc-spans" ||
        !RequireInt(*spans, "version", 1, err) || !RequireInt(*spans, "dropped", 0, err)) {
      return Fail(err, "spans: malformed section header");
    }
    const JsonValue* list;
    if (!RequireArray(*spans, "spans", &list, err)) {
      return false;
    }
    for (const JsonValue& s : list->arr) {
      if (!s.IsObject() || !RequireInt(s, "id", 0, err) ||
          s.Find("kind") == nullptr || !s.Find("kind")->IsString() ||
          !RequireInt(s, "node", 0, err)) {
        return Fail(err, "spans: malformed span entry");
      }
    }
  }

  const JsonValue* totals;
  if (!RequireObject(root, "totals", &totals, err)) {
    return false;
  }
  if (!RequireInt(*totals, "virtual_time_ns", 0, err)) {
    return false;
  }
  const JsonValue* proto;
  const JsonValue* traffic;
  if (!RequireObject(*totals, "proto", &proto, err) ||
      !RequireObject(*totals, "traffic", &traffic, err)) {
    return false;
  }

  const JsonValue* per_node;
  if (!RequireArray(root, "per_node", &per_node, err)) {
    return false;
  }
  if (static_cast<int64_t>(per_node->arr.size()) != nodes) {
    return Fail(err, "per_node length != config.nodes");
  }
  for (const JsonValue& n : per_node->arr) {
    if (!n.IsObject() || !RequireInt(n, "node", 0, err) ||
        !RequireInt(n, "finish_ns", 0, err)) {
      return Fail(err, "per_node: malformed entry");
    }
  }

  const JsonValue* histos;
  if (!RequireObject(root, "histograms", &histos, err)) {
    return false;
  }
  for (const auto& [name, h] : histos->obj) {
    if (!ValidateHistogram(name, h, nodes, err)) {
      return false;
    }
  }

  const JsonValue* ts;
  if (!RequireObject(root, "timeseries", &ts, err)) {
    return false;
  }
  if (!ValidateTimeseries(*ts, err)) {
    return false;
  }

  const JsonValue* hot;
  if (!RequireArray(root, "hot_pages", &hot, err)) {
    return false;
  }
  return ValidateHotPages(*hot, err);
}

}  // namespace hlrc
