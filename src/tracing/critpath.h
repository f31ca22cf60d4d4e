// Critical-path attribution over a span DAG (svmprof critpath / slowest).
//
// For every blocking root (fault / lock / barrier) the root's wait is split
// among the causal descendants active during it: at each instant the deepest
// active descendant wins, its kind's category accrues the time, and instants
// covered by no descendant count as protocol bookkeeping. By construction the
// per-category times sum exactly to the root's duration (asserted in
// test_spans), reproducing the paper's Fig. 3 style breakdown from causal
// data instead of flat counters.
#ifndef SRC_TRACING_CRITPATH_H_
#define SRC_TRACING_CRITPATH_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/tracing/span.h"

namespace hlrc {

enum class CritCat : uint8_t {
  kWire = 0,
  kQueueing,
  kRetransmit,
  kHomeService,
  kDiffCreate,
  kDiffApply,
  kBookkeeping,
  kCompute,
  kCount,
};

constexpr size_t kCritCatCount = static_cast<size_t>(CritCat::kCount);

const char* CritCatName(CritCat c);
// Maps an interior span kind to its attribution category.
CritCat CategoryOf(SpanKind k);

using CatTimes = std::array<SimTime, kCritCatCount>;

// One entry on a root's attributed timeline: a causal descendant clipped to
// the root's window, with its BFS depth from the root.
struct CritStep {
  SpanId id = kNoSpan;
  SpanKind kind = SpanKind::kCount;
  NodeId node = -1;
  SimTime t0 = 0;
  SimTime t1 = 0;
  int depth = 0;
};

struct RootAttribution {
  SpanId id = kNoSpan;
  SpanKind kind = SpanKind::kCount;
  NodeId node = -1;
  SimTime t0 = 0;
  SimTime t1 = 0;
  int64_t a0 = 0;  // page / lock / barrier id
  CatTimes by_cat{};
  // Descendants ordered by t0 (then depth) — the hop-by-hop timeline.
  std::vector<CritStep> steps;
};

struct CritPathSummary {
  std::vector<RootAttribution> roots;
  CatTimes total{};                       // summed over all roots
  CatTimes by_kind[3]{};                  // fault / lock / barrier rollups
  SimTime total_wait = 0;
  std::map<int64_t, CatTimes> by_page;    // fault roots only, keyed by page
  std::map<int64_t, SimTime> page_wait;
};

// Index into CritPathSummary::by_kind; -1 for non-blocking root kinds.
int RootKindIndex(SpanKind k);

// Attributes every fault/lock/barrier root's wait. `spans` must already have
// passed CheckSpanDag.
CritPathSummary AttributeCriticalPaths(const std::vector<Span>& spans);

}  // namespace hlrc

#endif  // SRC_TRACING_CRITPATH_H_
