// Span-DAG well-formedness checker (svmprof --check, test_spans).
#ifndef SRC_TRACING_SPAN_CHECK_H_
#define SRC_TRACING_SPAN_CHECK_H_

#include <string>
#include <vector>

#include "src/tracing/span.h"

namespace hlrc {

// Validates structural invariants of a span set:
//  - ids are unique and non-negative, intervals have t0 <= t1;
//  - parent edges reference existing spans whose interval contains the child;
//  - link edges reference existing spans;
//  - the graph (parent->child, link-source->target) is acyclic;
//  - every span is reachable from a root, and roots (no parent, no incoming
//    link) are restricted to the root kinds (fault/lock/barrier/interval-close).
// Returns false and describes the first violation in *err.
bool CheckSpanDag(const std::vector<Span>& spans, std::string* err);

}  // namespace hlrc

#endif  // SRC_TRACING_SPAN_CHECK_H_
