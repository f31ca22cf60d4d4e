// Causal span tracing (docs/OBSERVABILITY.md).
//
// A span is one timed episode of protocol work on one node — a page fault
// waiting, a message on the wire, a home serving a request, a diff being
// applied. Spans form a DAG: `parent` is a containment edge (the parent's
// interval covers the child's), `links` are causal flow edges carried across
// nodes on the Message (no containment implied). Roots are the operations an
// application thread blocks on (fault / lock / barrier) plus interval-close
// fan-outs; every other span must be reachable from a root or --check fails,
// which is what forces every Send in the protocols to carry a cause.
//
// Tracing is pure observation: recording spans must not change a single
// simulated timestamp (pinned by test_golden_determinism).
#ifndef SRC_TRACING_SPAN_H_
#define SRC_TRACING_SPAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace hlrc {

class JsonWriter;
struct JsonValue;
class Sampler;

using SpanId = int64_t;
constexpr SpanId kNoSpan = -1;

enum class SpanKind : uint8_t {
  // Root kinds: an application thread blocking (or an interval-close fan-out
  // origin). Only these may be DAG roots.
  kFault = 0,      // a0 = page, a1 = 1 if write fault
  kLock,           // a0 = lock id
  kBarrier,        // a0 = barrier id
  kIntervalClose,  // a0 = interval id

  // Interior kinds — always reachable from a root through parent/link edges.
  kQueue,          // frame waiting for the sender's link to free
  kWire,           // frame in flight (latency + transfer)
  kRetransmit,     // time between the first submit and a retransmission
  kService,        // a handler occupying cpu/coprocessor at the receiver
  kHomeWait,       // page request parked at the home behind an open interval
  kDiffCreate,     // computing a diff against the twin
  kDiffApply,      // applying a diff/page update to memory
  kWnApply,        // write-notice / bookkeeping apply (lock grant, barrier release)
  kLockHold,       // requester holds the lock (critical section = compute)
  kBarrierGather,  // manager waiting for all arrivals
  kCoalesceHold,   // message parked in the coalescing send queue (a0 = type)

  kCount,
};

const char* SpanKindName(SpanKind k);
// Returns kCount when `name` is not a span kind.
SpanKind SpanKindFromName(const std::string& name);
// True for the kinds allowed to be DAG roots.
bool SpanKindIsRoot(SpanKind k);

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;          // containment edge (same-root subtree)
  std::vector<SpanId> links;        // causal flow edges (sources preceding us)
  SpanKind kind = SpanKind::kCount;
  NodeId node = -1;
  SimTime t0 = 0;
  SimTime t1 = 0;
  int64_t a0 = 0;
  int64_t a1 = 0;
  std::vector<uint32_t> vt;         // vector-clock snapshot (roots only)
};

// Records spans with a fixed capacity. On overflow new spans are dropped
// (Begin/Emit return kNoSpan) and `dropped()` counts them; every recording
// API tolerates kNoSpan so the recorded set stays closed under references.
class SpanTracer {
 public:
  explicit SpanTracer(size_t capacity = 1 << 16);

  // Opens a span at `t0`; close it later with End. Returns kNoSpan when full.
  SpanId Begin(SpanKind kind, NodeId node, SimTime t0, SpanId parent = kNoSpan,
               int64_t a0 = 0, int64_t a1 = 0);
  // Closes `id` at `t1`. No-op for kNoSpan.
  void End(SpanId id, SimTime t1);
  // Begin + End in one call.
  SpanId Emit(SpanKind kind, NodeId node, SimTime t0, SimTime t1,
              SpanId parent = kNoSpan, int64_t a0 = 0, int64_t a1 = 0);
  // Adds causal edge `from` → `target`. No-op if either is kNoSpan.
  void AddLink(SpanId target, SpanId from);
  // Stamps a vector-clock snapshot on `id`. No-op for kNoSpan.
  void SetVt(SpanId id, const std::vector<uint32_t>& vt);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }
  size_t capacity() const { return capacity_; }

 private:
  bool Valid(SpanId id) const {
    return id >= 0 && static_cast<size_t>(id) < spans_.size();
  }

  std::vector<Span> spans_;
  size_t capacity_;
  int64_t dropped_ = 0;
};

// --- Export -----------------------------------------------------------------

inline constexpr const char* kSpansSchemaName = "hlrc-spans";
inline constexpr int kSpansSchemaVersion = 1;

// Writes the execution trace as a Chrome trace-event JSON array
// (chrome://tracing, Perfetto): one "X" complete slice per span (pid 0,
// tid = node), an "s"/"f" flow pair per causal link so chains render as
// arrows, and a "C" counter event per sampler series and sample. Events are
// streamed to the file, never held in memory whole. Returns false (with a
// message in *err) when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const SpanTracer& tracer,
                      const Sampler& sampler, std::string* err);

// Writes the versioned `"spans"` run-summary section (key + object) into an
// open JSON object.
void WriteSpansJson(JsonWriter* w, const SpanTracer& tracer);

// Extracts the spans section from a parsed run summary. Returns false (with
// a message in *err) when the section is missing or malformed.
bool ParseSpans(const JsonValue& summary_root, std::vector<Span>* out,
                int64_t* dropped, std::string* err);

}  // namespace hlrc

#endif  // SRC_TRACING_SPAN_H_
