// Versioned JSON run summary (schema "hlrc-run-summary", version 1).
//
// One machine-readable artifact per run: configuration, the paper-style
// per-node time breakdowns, ProtoStats/TrafficStats totals, every non-empty
// latency histogram with buckets and percentiles, the sampler time-series,
// and the ranked hot-page table. Designed to be diffed across commits —
// `tools/svmprof` consumes one or two of these; docs/OBSERVABILITY.md
// documents every field, and src/metrics/run_summary_schema.h validates the
// shape. Bump the version whenever a field changes meaning or disappears;
// adding fields is backward compatible.
#ifndef SRC_SVM_RUN_SUMMARY_H_
#define SRC_SVM_RUN_SUMMARY_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/coverage.h"

namespace hlrc {

class System;

// Descriptive fields the System does not know about.
struct RunSummaryMeta {
  std::string app;    // Application name ("sor", "lu", ...; "custom" if none).
  std::string scale;  // Problem scale ("tiny", "default", "paper", ...).
  bool verified = false;
  // Protocol-state coverage of the run (svmsim --coverage / svmfuzz; see
  // docs/FUZZING.md). Plain data so src/svm does not depend on the concrete
  // map in src/fuzz; emitted as an optional "coverage" object when enabled.
  struct Coverage {
    bool enabled = false;
    int64_t points = 0;  // Distinct coverage points.
    int64_t hits = 0;    // Total emissions.
    std::array<int64_t, CoverageObserver::kDomains> domain_points = {};
  } coverage;
};

// Renders the summary for a completed run. Requires System::EnableMetrics to
// have been active during the run (histograms, time-series and heat come
// from the metrics bundle).
std::string RunSummaryJson(const System& sys, const RunSummaryMeta& meta);

// Streams the same document to `path` (newline-terminated) without holding
// it in memory. Returns false and fills `*err` if the file cannot be opened
// or a write to it comes up short.
bool WriteRunSummaryJson(const std::string& path, const System& sys,
                         const RunSummaryMeta& meta, std::string* err);

}  // namespace hlrc

#endif  // SRC_SVM_RUN_SUMMARY_H_
