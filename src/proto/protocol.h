// Base class shared by all SVM protocols.
//
// One ProtocolNode lives on every simulated node. It owns the node's interval
// and vector-timestamp machinery, the distributed lock algorithm, the barrier
// (paper §3.5's centralized manager, the one-level shape of a combining
// tree), write-notice propagation, the one message-service path (Serve:
// which processor, which interrupt, which span), and the twin-diff and
// page-install steps every twin-based protocol shares.
//
// Subclasses implement update handling: where diffs go at interval end and
// how a page fault is resolved (homeless diff collection for LRC/OLRC,
// home-page fetch for HLRC/OHLRC).
#ifndef SRC_PROTO_PROTOCOL_H_
#define SRC_PROTO_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/mem/diff.h"
#include "src/metrics/node_metrics.h"
#include "src/mem/page_table.h"
#include "src/mem/shared_space.h"
#include "src/net/network.h"
#include "src/proto/cost_model.h"
#include "src/proto/interval.h"
#include "src/proto/interval_log.h"
#include "src/proto/options.h"
#include "src/proto/vector_clock.h"
#include "src/sim/completion.h"
#include "src/sim/processor.h"
#include "src/sim/task.h"
#include "src/tracing/span.h"

namespace hlrc {

// Per-node protocol event counters (paper Table 4) and wait accounting
// (paper Figures 3 and 4).
struct ProtoStats {
  int64_t read_misses = 0;
  int64_t write_faults = 0;
  int64_t page_fetches = 0;  // Full pages fetched from a remote node.
  int64_t diffs_created = 0;
  int64_t diffs_applied = 0;
  int64_t diff_requests_sent = 0;
  int64_t lock_acquires = 0;   // Application-level acquires.
  int64_t remote_acquires = 0; // Acquires that needed messages.
  int64_t barriers = 0;
  int64_t intervals_closed = 0;
  int64_t write_notices_received = 0;
  int64_t pages_invalidated = 0;
  int64_t gc_runs = 0;
  // Request combining (NetworkConfig::coalesce): page replies served from a
  // snapshot shared with at least one other parked requester. Not part of the
  // golden summary (zero with coalescing off).
  int64_t page_replies_combined = 0;

  WaitBreakdown waits;

  // Protocol memory high-water mark (Table 6).
  int64_t proto_mem_highwater = 0;

  // Interval-metadata component of the high-water mark (bytes of interval
  // records / write notices held in the interval log), tracked separately so
  // paper_grid's Table 6 can attribute metadata overhead. Not part of the run
  // summary or golden output.
  int64_t interval_meta_highwater = 0;

  // Field-wise sum (RunReport::Totals) and quotient (RunReport::Average).
  ProtoStats& operator+=(const ProtoStats& o) {
    return ForEachPair(o, [](int64_t& a, int64_t b) { a += b; });
  }
  ProtoStats& operator/=(int64_t n) {
    return ForEachPair(*this, [n](int64_t& a, int64_t) { a /= n; });
  }

 private:
  // Calls f(mine, theirs) for every counter: the one field list both
  // operators share.
  template <typename F>
  ProtoStats& ForEachPair(const ProtoStats& o, F f) {
    f(read_misses, o.read_misses);
    f(write_faults, o.write_faults);
    f(page_fetches, o.page_fetches);
    f(diffs_created, o.diffs_created);
    f(diffs_applied, o.diffs_applied);
    f(diff_requests_sent, o.diff_requests_sent);
    f(lock_acquires, o.lock_acquires);
    f(remote_acquires, o.remote_acquires);
    f(barriers, o.barriers);
    f(intervals_closed, o.intervals_closed);
    f(write_notices_received, o.write_notices_received);
    f(pages_invalidated, o.pages_invalidated);
    f(gc_runs, o.gc_runs);
    f(page_replies_combined, o.page_replies_combined);
    for (size_t i = 0; i < waits.by_cat.size(); ++i) {
      f(waits.by_cat[i], o.waits.by_cat[i]);
    }
    f(proto_mem_highwater, o.proto_mem_highwater);
    f(interval_meta_highwater, o.interval_meta_highwater);
    return *this;
  }
};

// One node's barrier arrival — its id and the vector time it arrived with.
// The combining barrier tree ships whole subtrees of these in one enter.
struct BarrierArrival {
  NodeId node = kInvalidNode;
  VectorClock vt;
};

// Arity of the combining barrier tree on the coalesced wire plane
// (NetworkConfig::coalesce). Without it the tree has one level: every other
// node is a child of the manager, the paper's centralized barrier.
constexpr int kBarrierArity = 4;

class ProtocolNode {
 public:
  // Wiring provided by svm::System.
  struct Env {
    Engine* engine = nullptr;
    Network* network = nullptr;
    Processor* cpu = nullptr;  // Compute processor.
    Processor* cop = nullptr;  // Communication co-processor.
    PageTable* pages = nullptr;
    const SharedSpace* space = nullptr;  // For allocation-aware home placement.
    const CostModel* costs = nullptr;
    const ProtocolOptions* options = nullptr;
    NodeId self = kInvalidNode;
    int nodes = 0;
  };

  static std::unique_ptr<ProtocolNode> Create(const Env& env);

  explicit ProtocolNode(const Env& env);
  virtual ~ProtocolNode();
  ProtocolNode(const ProtocolNode&) = delete;
  ProtocolNode& operator=(const ProtocolNode&) = delete;

  // ---- Application-facing operations --------------------------------------

  Task<void> Acquire(LockId lock);
  Task<void> Release(LockId lock);
  Task<void> Barrier(BarrierId barrier);

  // One contiguous page range of an access grant.
  struct PageSpan {
    PageId first;
    PageId last;
    bool write;
  };

  // Ensures every page in `spans` is accessible at the requested level. The
  // scan walks the spans in order and resolves the first page that does not
  // grant its access, then resumes at that page, or restarts at the first
  // page if this node's page table counted a protection loss
  // (PageTable::prot_losses) meanwhile. The grant returns synchronously with
  // the caller's resumption, after a check of every page if it faulted, so
  // it holds until the application's next co_await: this mirrors
  // hardware-MMU semantics, where a store after an asynchronous interval
  // close (which write-protects pages) would re-fault. Callers must perform
  // their stores before suspending again.
  Task<void> EnsureAccessSpans(std::vector<PageSpan> spans);

  // Convenience single-range form.
  Task<void> EnsureAccess(PageId first, PageId last, bool write);

  // ---- Network entry -------------------------------------------------------

  void HandleMessage(Message msg);

  // ---- Introspection -------------------------------------------------------

  const ProtoStats& stats() const { return stats_; }
  const VectorClock& vt() const { return vt_; }

  // Current protocol memory footprint: interval records + twins + subclass
  // state (stored diffs, per-page timestamp vectors, ...).
  virtual int64_t ProtocolMemoryBytes() const;

  NodeId self() const { return env_.self; }
  int nodes() const { return env_.nodes; }

  // Number of pages actually allocated by the application; the home-based
  // protocols' block home policy distributes over this range. Set by System
  // at run start, after the application's allocations.
  virtual void SetUsedPages(int /*used*/) {}

  // Attaches a causal span tracer (System::EnableSpans). Pure observation:
  // span recording must not change a single simulated timestamp (pinned by
  // test_golden_determinism). Null (the default) keeps every recording site
  // a single-branch no-op.
  void SetSpanTracer(SpanTracer* spans) { spans_ = spans; }

  // Attaches pre-resolved metric instruments (System::EnableMetrics). Null
  // (the default) keeps every recording site a single-branch no-op.
  void SetMetrics(ProtoMetrics* metrics) { metrics_ = metrics; }

  // Attaches a coverage observer (System::SetCoverageObserver). The protocol
  // emits kPageTransition points for every page-protection change,
  // kSyncEpoch points for write-notice batches at grants/releases, and
  // kInterval points at interval close. Pure observation; null (the
  // default) keeps every emitting site a single-branch no-op.
  void SetCoverageObserver(CoverageObserver* cov) { coverage_ = cov; }

 protected:
  // ---- Subclass interface --------------------------------------------------

  // Called when an interval with dirty pages closes, before the record is
  // published. Computes diffs (data-wise, instantly) and may remove pages
  // whose diff turned out empty (a write that did not change the page needs
  // no write notice). Returns compute-processor costs to charge; the `post`
  // steps run in order after the costs have been charged (they send diff
  // flushes for the non-overlapped protocols, or schedule co-processor
  // diffing for the overlapped ones).
  struct CloseActions {
    SimTime protect_cost = 0;  // Reprotection of dirty pages.
    SimTime diff_cost = 0;     // Diff creation on the compute processor.
    std::vector<std::function<void()>> post;
    SimTime TotalCpu() const { return protect_cost + diff_cost; }
  };
  virtual void OnIntervalClosed(IntervalRecord* rec, CloseActions* actions) = 0;

  // Invalidation bookkeeping for one write notice of the published record
  // `rec`. A subclass that keeps the notice may keep the handle: the record is
  // immutable and outlives the interval log's barrier truncation. Returns true
  // if the page mapping was actually invalidated (for cost accounting).
  virtual bool OnWriteNotice(const IntervalPtr& rec, PageId page) = 0;

  // Brings `page` up to date after a fault. The page-fault entry cost has
  // already been charged. Runs on the faulting node's app coroutine.
  virtual Task<void> ResolveFault(PageId page, bool write) = 0;

  // Handles protocol-specific messages (diff/page/GC traffic).
  virtual void HandleProtocolMessage(Message msg) = 0;

  // Memory used by subclass data structures (Table 6).
  virtual int64_t SubclassMemoryBytes() const = 0;

  // Barrier-manager hook: runs after all nodes arrived, before releases are
  // sent. The homeless protocols run garbage collection here. `mem_pressure`
  // is true if any node flagged its protocol memory above threshold.
  virtual Task<void> BarrierPreRelease(BarrierId barrier, bool mem_pressure);

  // For the GC orchestration: the write notices node `node` is missing, i.e.
  // exactly what its barrier release will carry. Only valid at the barrier
  // manager (the tree's root) between all-arrived and the releases.
  IntervalBatch PackBarrierReleaseFor(BarrierId barrier, NodeId node) const;

  // Called on every node when a barrier release is applied; lets subclasses
  // prune per-barrier state.
  virtual void OnBarrierReleased();

  // Release-consistency flush barrier: `done` runs once every outstanding
  // eager update of this node has been acknowledged. Grants and barrier
  // enters are gated on it, so an eager protocol's writes are globally
  // visible before any happens-before edge leaves the node. The default (all
  // lazy protocols) completes immediately.
  virtual void FlushBarrier(std::function<void()> done) { done(); }

  // ---- Services shared with subclasses -------------------------------------

  // Charges `cost` on the compute processor from the app coroutine.
  Task<void> ChargeCpu(SimTime cost, BusyCat cat);

  // The three ways a message is serviced (paper §2.4.1).
  enum class Route {
    kRequest,  // Unsolicited request: compute processor, behind the receive
               // interrupt.
    kReply,    // Reply to a requester blocked in a receive: compute
               // processor, no interrupt.
    kData,     // Data request under the overlap policy: the co-processor
               // (which polls, taking no interrupts) when overlapped, else
               // as kRequest.
  };

  // Services `msg`: once the route's processor has spent `cost` on `cat`,
  // runs `fn` under the message's service span — [arrival, completion],
  // chained from the wire span, kind kDiffApply for diff-apply work and
  // kService otherwise, first argument `a0`. Evaluation order of the
  // arguments is unspecified: no other argument may read a payload field
  // that `fn` moves.
  template <typename F>
  void Serve(const Message& msg, Route route, SimTime cost, BusyCat cat, int64_t a0, F fn) {
    const SpanKind kind = cat == BusyCat::kDiffApply ? SpanKind::kDiffApply : SpanKind::kService;
    // Composed before type erasure: one std::function per serviced message.
    Dispatch(route, cost, cat,
             [this, kind, a0, cause = msg.span, t_arrive = engine()->Now(),
              fn = std::move(fn)]() mutable {
               SpanCause sc(this, SpanEmit(kind, t_arrive, cause, a0));
               fn();
             });
  }

  // Closes the current interval if it has dirty pages: bumps the vector
  // timestamp, records the interval, reprotects dirty pages, and invokes
  // OnIntervalClosed. Returns actions for the caller to charge/run.
  CloseActions CloseIntervalPrepared();

  // App-side interval close (charges on the app coroutine).
  Task<void> CloseIntervalFromApp();

  // Marks a page dirty in the current open interval.
  void MarkDirty(PageId page);

  // Diffs `page` against its twin and drops the twin.
  Diff TakeTwinDiff(PageId page);

  // Installs a fetched copy of `page`. Local writes of the open interval
  // survive (multiple-writer pages): their delta is reapplied on top of the
  // incoming copy, and the twin is rebased onto it.
  void InstallPageData(PageId page, const std::vector<std::byte>& data);

  // Applies a batch of interval records learned from a grant or release.
  // Returns the cpu cost of the write-notice handling (already includes page
  // invalidation costs). The handles are stored as-is: the receiver's log
  // aliases the sender's records instead of deep-copying them.
  SimTime ApplyIntervals(const IntervalBatch& recs);

  // Packs all known intervals the node `vt` has not seen (handle copies, no
  // record copies).
  IntervalBatch PackIntervalsFor(const VectorClock& vt) const;

  // Sends a message, filling in the source.
  void Send(NodeId dst, MsgType type, int64_t update_bytes, int64_t protocol_bytes,
            std::unique_ptr<Payload> payload);

  bool overlapped() const { return IsOverlapped(env_.options->kind); }
  bool home_based() const { return IsHomeBased(env_.options->kind); }

  // Updates the protocol-memory high-water mark.
  void NoteMemory();

  // Metric recording helpers: no-ops when metrics are off, O(1) otherwise.
  // Subclasses call them at the sites where the corresponding ProtoStats
  // counter is bumped, adding per-page attribution the scalars cannot carry.
  void MetricFetch(PageId page, int64_t bytes) const {
    if (metrics_ != nullptr) {
      metrics_->heat->OnFetch(page, bytes);
    }
  }
  void MetricDiffCreated(PageId page, int64_t bytes) const {
    if (metrics_ != nullptr) {
      metrics_->heat->OnDiffCreated(page, bytes);
    }
  }
  void MetricDiffApplied(PageId page, int64_t bytes) const {
    if (metrics_ != nullptr) {
      metrics_->heat->OnDiffApplied(page, bytes);
    }
  }

  // Whether interval record vts are shipped on the wire (homeless only).
  bool ShipVt() const { return !home_based(); }

  int64_t IntervalBytes(const IntervalRecord& rec) const {
    return rec.EncodedSize(ShipVt());
  }
  // Wire bytes of a batch of interval records.
  int64_t BatchBytes(const IntervalBatch& recs) const {
    int64_t bytes = 0;
    for (const IntervalPtr& rec : recs) {
      bytes += IntervalBytes(*rec);
    }
    return bytes;
  }

  const Env& env() const { return env_; }
  Engine* engine() const { return env_.engine; }
  const CostModel& costs() const { return *env_.costs; }
  PageTable& pages() const { return *env_.pages; }

  // One blocking operation: measures the wall time from construction to
  // Finish() minus the compute-processor busy time accrued in between, adds
  // it to `stats_.waits[cat]` and the wait histogram, and — for the fault,
  // lock and barrier operations — records it as one root span stamped with
  // the node's vector clock. If `deduct` is not kNone the same amount is
  // subtracted from that category (used to carve GC waits out of the
  // enclosing barrier wait).
  struct WaitScope {
    ProtocolNode* node;
    WaitCat cat;
    WaitCat deduct;
    SimTime t0;
    SimTime busy0;
    SpanId span = kNoSpan;  // The root span, if the scope opened one.
    WaitScope(ProtocolNode* n, WaitCat c, WaitCat d = WaitCat::kNone);
    WaitScope(ProtocolNode* n, WaitCat c, SpanKind root, int64_t a0, int64_t a1 = 0);
    void Finish();
  };

  // Coverage emission helper (no-op when no observer is installed).
  void Cover(CoverageObserver::Domain domain, uint64_t a, uint64_t b) const {
    if (coverage_ != nullptr) {
      coverage_->Cover(domain, a, b);
    }
  }

  // ---- Span tracing (src/tracing/span.h) -----------------------------------
  //
  // `active_span_` is the causal context of the code currently running on
  // this node: Send stamps it on outgoing Messages, and SpanCause scopes it
  // around synchronous regions. It does NOT survive engine scheduling —
  // deferred callbacks and coroutine resumptions must capture their cause
  // when created and re-establish it with SpanCause inside. All helpers are
  // single-branch no-ops when tracing is off.

  // Opens a span at Now() on this node.
  SpanId SpanBegin(SpanKind kind, int64_t a0 = 0, int64_t a1 = 0) {
    return spans_ != nullptr
               ? spans_->Begin(kind, env_.self, env_.engine->Now(), kNoSpan, a0, a1)
               : kNoSpan;
  }
  // Closes `id` at Now().
  void SpanEnd(SpanId id) {
    if (spans_ != nullptr) {
      spans_->End(id, env_.engine->Now());
    }
  }
  // Records a closed span [t0, Now()] causally linked from `cause`. Interior
  // (non-root) kinds are recorded only when they have a cause: an interior
  // span with no in-edge would be an orphan in the DAG, so untraced paths
  // (e.g. garbage-collection traffic) simply record nothing downstream.
  SpanId SpanEmit(SpanKind kind, SimTime t0, SpanId cause, int64_t a0 = 0,
                  int64_t a1 = 0) {
    if (spans_ == nullptr || (cause == kNoSpan && !SpanKindIsRoot(kind))) {
      return kNoSpan;
    }
    const SpanId id =
        spans_->Emit(kind, env_.self, t0, env_.engine->Now(), kNoSpan, a0, a1);
    spans_->AddLink(id, cause);
    return id;
  }
  void SpanLink(SpanId target, SpanId from) {
    if (spans_ != nullptr) {
      spans_->AddLink(target, from);
    }
  }
  // Stamps this node's current vector clock on `id` (root spans).
  void SpanVt(SpanId id) {
    if (spans_ != nullptr) {
      spans_->SetVt(id, vt_.raw());
    }
  }

  // Establishes `span` as the active causal context for a synchronous region
  // (restores the previous context on scope exit). Do not hold across
  // co_await: the restored value would be stale.
  struct SpanCause {
    ProtocolNode* node;
    SpanId saved;
    SpanCause(ProtocolNode* n, SpanId span) : node(n), saved(n->active_span_) {
      n->active_span_ = span;
    }
    ~SpanCause() { node->active_span_ = saved; }
    SpanCause(const SpanCause&) = delete;
    SpanCause& operator=(const SpanCause&) = delete;
  };

  SpanId active_span() const { return active_span_; }
  // The fault root currently being resolved on this node's app coroutine
  // (kNoSpan outside ResolveFault). Survives co_await, unlike active_span_.
  SpanId cur_fault_span() const { return cur_fault_span_; }
  // The interval-close span of the interval being closed; valid during
  // OnIntervalClosed for subclasses to capture into deferred flush lambdas.
  SpanId interval_close_span() const { return interval_close_span_; }
  // This node's gather span for `barrier`, between its first fold and its
  // combined enter or, at the manager, the releases (kNoSpan otherwise); lets
  // subclass pre-release work (GC) stay connected to the barrier chain.
  SpanId BarrierGatherSpan(BarrierId barrier) const;

  ProtoStats stats_;
  ProtoMetrics* metrics_ = nullptr;
  CoverageObserver* coverage_ = nullptr;
  SpanTracer* spans_ = nullptr;
  SpanId active_span_ = kNoSpan;
  SpanId cur_fault_span_ = kNoSpan;
  SpanId interval_close_span_ = kNoSpan;
  VectorClock vt_;

  // All interval records known to this node — one append-only log per
  // writer, holding shared immutable handles — pruned at barriers once every
  // node has seen them.
  IntervalLog interval_log_;
  int64_t known_interval_bytes_ = 0;

 private:
  // Runs `done` on the processor `route` selects, after `cost` of `cat`.
  void Dispatch(Route route, SimTime cost, BusyCat cat, std::function<void()> done);

  // ---- Lock algorithm ------------------------------------------------------

  struct LockState {
    bool held = false;    // Token cached here.
    bool in_use = false;  // App is inside acquire..release.
    NodeId pending_requester = kInvalidNode;
    VectorClock pending_vt;
    std::unique_ptr<Completion> waiting;  // Local acquire waiting for grant.
    // Span tracing: the parked requester's causal context (the forward's
    // service span) and the holder's critical-section span.
    SpanId pending_span = kNoSpan;
    SpanId hold_span = kNoSpan;
  };
  struct LockManagerState {
    NodeId last_requester = kInvalidNode;
  };

  NodeId LockManagerNode(LockId lock) const {
    return static_cast<NodeId>(lock % env_.nodes);
  }

  LockState& Lock(LockId lock);
  LockManagerState& ManagerState(LockId lock);

  void HandleLockRequest(LockId lock, NodeId requester, const VectorClock& rvt);
  void HandleLockForward(LockId lock, NodeId requester, const VectorClock& rvt);
  // `cause` is the requester's causal context (span tracing): the forward's
  // service span for an immediate grant, or the parked pending_span when the
  // grant happens at release time. kNoSpan when tracing is off.
  void GrantLock(LockId lock, NodeId requester, const VectorClock& rvt, SpanId cause);
  void HandleLockGrant(LockId lock, IntervalBatch intervals);

  // ---- Barrier algorithm ---------------------------------------------------
  //
  // One combining tree rooted at the manager: node i's parent is
  // (i - 1) / BarrierArity(). A leaf packs its records and sends its enter to
  // its parent. A node with children folds its own arrival and each child's
  // enter; once its whole subtree has arrived it packs once and sends one
  // combined enter upward, or, at the root, runs BarrierPreRelease and
  // releases its children. Releases fan out down the same tree.

  static constexpr NodeId kBarrierManager = 0;

  // Per-barrier fan-in state of a node with children.
  struct BarrierState {
    std::vector<BarrierArrival> arrivals;  // Subtree (node, arrival-vt) pairs.
    bool mem_pressure = false;
    bool launched = false;  // Combined enter sent / root's releases launched.
    // Span tracing: first arrival -> combined enter or releases, linked from
    // every arrival.
    SpanId gather_span = kNoSpan;
  };

  // kBarrierArity on the coalesced wire plane, else one level.
  int BarrierArity() const;
  NodeId BarrierParent() const { return (env_.self - 1) / BarrierArity(); }

  // Folds `arrivals` (this node's own, a leaf's, or a child subtree's) and
  // their interval records into this node's fan-in state.
  void FoldBarrierArrivals(BarrierId barrier, std::span<BarrierArrival> arrivals,
                           const IntervalBatch& intervals, bool mem_pressure);
  // Acts once the whole subtree has arrived: sends the combined enter up, or
  // at the root runs BarrierPreRelease and the releases.
  void MaybeBarrierSubtreeArrived(BarrierId barrier);

  // Sends this node's enter toward `dst`: its vt and `recs`, plus — for a
  // node with children — the (node, arrival-vt) pairs of its whole subtree.
  // A leaf's enter carries no pairs: it is its own arrival.
  void SendBarrierEnter(NodeId dst, BarrierId barrier, IntervalBatch recs, bool mem_pressure,
                        std::vector<BarrierArrival> arrivals);
  // Sends `dst` its release: every interval record its arrival vt lacks.
  // Returns the send-side cost to charge.
  SimTime SendBarrierRelease(NodeId dst, BarrierId barrier, const VectorClock& arrival_vt);
  // Releases each direct child, in ascending node order, against the vt it
  // arrived with. Returns the send-side cost to charge.
  SimTime ReleaseBarrierChildren(BarrierId barrier, const BarrierState& bs);
  static const VectorClock& ArrivalVt(const BarrierState& bs, NodeId node);

  void SendBarrierReleases(BarrierId barrier);
  void HandleBarrierRelease(BarrierId barrier, IntervalBatch intervals,
                            const VectorClock& max_vt);

  Env env_;

  std::unordered_map<LockId, LockState> locks_;
  std::unordered_map<LockId, LockManagerState> lock_managers_;

  std::unordered_map<BarrierId, BarrierState> barriers_;
  int barrier_subtree_ = 1;  // Nodes in this node's barrier subtree, itself included.
  std::unique_ptr<Completion> barrier_waiting_;
  VectorClock sent_to_manager_vt_;

  // Open-interval dirty set.
  std::vector<PageId> open_dirty_;  // Each one's PageState::dirty is set.
};

// Message payloads shared by all protocols.

struct LockRequestPayload : Payload {
  LockId lock;
  NodeId requester;
  VectorClock vt;
};

struct LockForwardPayload : Payload {
  LockId lock;
  NodeId requester;
  VectorClock vt;
};

// Grant/release payloads carry shared handles to immutable records: an
// N-node fan-out aliases one record N times instead of deep-copying it. The
// reliable channel may retransmit a whole Message (aliased, not copied), so
// immutability-after-publish is load-bearing, not just an optimization.

struct LockGrantPayload : Payload {
  LockId lock;
  IntervalBatch intervals;
};

struct BarrierEnterPayload : Payload {
  BarrierId barrier;
  NodeId node;
  VectorClock vt;
  IntervalBatch intervals;
  bool mem_pressure = false;
  // Every (node, arrival-vt) pair of the sender's subtree, the sender
  // included. Empty for a leaf's enter: `node` and `vt` are its arrival.
  std::vector<BarrierArrival> arrivals;
};

struct BarrierReleasePayload : Payload {
  BarrierId barrier;
  IntervalBatch intervals;
  VectorClock max_vt;
};

}  // namespace hlrc

#endif  // SRC_PROTO_PROTOCOL_H_
