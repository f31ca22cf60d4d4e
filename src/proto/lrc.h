// Homeless lazy release consistency (the paper's LRC baseline and its
// overlapped variant OLRC).
//
// Diffs stay distributed at their writers. A page fault collects the diffs
// named by the page's pending write notices from every writer and applies
// them locally in happens-before order. Protocol data (diffs, write notices)
// accumulates until a barrier-time garbage collection validates each page at
// its last writer and discards everything (paper §3.5).
//
// OLRC (overlapped()) moves diff creation and diff/page fetch servicing to
// the communication co-processor; twin creation, diff application and lock
// handling stay on the compute processor (paper §2.4.1).
#ifndef SRC_PROTO_LRC_H_
#define SRC_PROTO_LRC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/proto/protocol.h"

namespace hlrc {

class LrcProtocol : public ProtocolNode {
 public:
  explicit LrcProtocol(const Env& env) : ProtocolNode(env) {}

 protected:
  void OnIntervalClosed(IntervalRecord* rec, CloseActions* actions) override;
  bool OnWriteNotice(const IntervalRecord& rec, PageId page) override;
  Task<void> ResolveFault(PageId page, bool write) override;
  void HandleProtocolMessage(Message msg) override;
  int64_t SubclassMemoryBytes() const override;
  Task<void> BarrierPreRelease(BarrierId barrier, bool mem_pressure) override;
  void OnBarrierReleased() override;

 private:
  struct StoredDiff {
    Diff diff;
    VectorClock vt;  // Writer's vt at the interval that produced the diff.
    bool ready = true;
    // Lazy diff policy: the creation cost is deferred to the first request.
    bool cost_charged = true;
    SimTime create_cost = 0;
    int64_t bytes = 0;
  };
  using DiffKey = std::pair<PageId, uint32_t>;

  struct PendingWn {
    NodeId writer;
    uint32_t id;
    VectorClock vt;
  };

  // In-flight fault resolution for one page.
  struct FaultCtx {
    int replies_needed = 0;
    // (vt, interval id, writer, diff) collected from replies.
    std::vector<std::tuple<VectorClock, uint32_t, NodeId, Diff>> collected;
    std::vector<std::byte> page_data;
    std::vector<std::pair<NodeId, uint32_t>> page_covered;
    std::unique_ptr<Completion> done;
  };

  bool HasPending(PageId page) const;
  Task<void> FetchDiffs(PageId page);
  Task<void> FetchFullPage(PageId page);

  uint32_t GetCovered(PageId page, NodeId writer) const;
  void SetCovered(PageId page, NodeId writer, uint32_t id);
  void PrunePendingCovered(PageId page);

  void MarkDiffReady(PageId page, uint32_t id);
  void TrySendDiffReply(PageId page, NodeId requester, const std::vector<uint32_t>& ids);
  void ServePageRequest(PageId page, NodeId requester);

  // Garbage collection.
  void HandleGcRequest();
  void HandleGcInfo(NodeId node,
                    std::vector<std::tuple<PageId, uint32_t, VectorClock>> entries);
  void ApplyGcValidate(const std::vector<std::pair<PageId, NodeId>>& validators,
                       const IntervalBatch& intervals);
  Task<void> ValidateForGc(std::vector<PageId> pages);
  void HandleGcDone();

  std::map<DiffKey, StoredDiff> diff_store_;
  int64_t diff_store_bytes_ = 0;

  // Flat per-page GC inventory index: page -> highest interval id with a
  // stored diff. Maintained incrementally at diff creation so HandleGcRequest
  // reads it off instead of rebuilding a std::map from the whole diff store
  // every GC round. Cleared with diff_store_. Host-side bookkeeping only: not
  // part of the simulated memory model (SubclassMemoryBytes).
  std::unordered_map<PageId, uint32_t> latest_diff_id_;

  // Reusable per-writer buckets for FetchDiffs grouping (replaces a fresh
  // std::map<NodeId, vector> per fault). writer_scratch_ lists the writers
  // with a non-empty bucket; both are drained before any suspension point.
  std::vector<std::vector<uint32_t>> writer_bucket_;
  std::vector<NodeId> writer_scratch_;

  std::unordered_map<PageId, std::vector<PendingWn>> pending_;
  int64_t pending_count_ = 0;

  // Per page: highest interval id of each writer reflected in the local copy.
  std::unordered_map<PageId, std::vector<uint32_t>> covered_;

  // Where to fetch a full page after GC dropped the local copy.
  std::unordered_map<PageId, NodeId> owner_hint_;

  std::unordered_map<PageId, FaultCtx> faults_;
  std::map<DiffKey, std::vector<std::function<void()>>> diff_ready_waiters_;

  // GC state (node side): page -> validator assignments of the current GC.
  std::map<PageId, NodeId> gc_map_;

  // TestMutation::kLrcSkipInvalidate fires once per run.
  bool mutation_fired_ = false;

  // GC state (manager side).
  struct GcCoord {
    int infos_pending = 0;
    int dones_pending = 0;
    std::map<PageId, std::pair<VectorClock, NodeId>> best;  // Last writer per page.
    std::unique_ptr<Completion> infos_done;
    std::unique_ptr<Completion> dones_done;
  };
  std::unique_ptr<GcCoord> gc_coord_;
};

// Payloads.

struct DiffRequestPayload : Payload {
  PageId page;
  NodeId requester;
  std::vector<uint32_t> intervals;
};

struct DiffReplyPayload : Payload {
  PageId page;
  NodeId writer;
  std::vector<std::pair<uint32_t, Diff>> diffs;
};

struct HomelessPageRequestPayload : Payload {
  PageId page;
  NodeId requester;
};

struct HomelessPageReplyPayload : Payload {
  PageId page;
  std::vector<std::byte> data;
  std::vector<std::pair<NodeId, uint32_t>> covered;
};

struct GcRequestPayload : Payload {};

struct GcInfoPayload : Payload {
  NodeId node;
  std::vector<std::tuple<PageId, uint32_t, VectorClock>> entries;
};

struct GcValidatePayload : Payload {
  std::vector<std::pair<PageId, NodeId>> validators;
  // The write notices this node's barrier release will carry, delivered
  // early: a validator must know every pre-barrier interval of its pages
  // before validating, or it would discover new diffs only after they have
  // been collected. Shared handles, like the release payload itself.
  IntervalBatch intervals;
};

struct GcDonePayload : Payload {
  NodeId node;
};

}  // namespace hlrc

#endif  // SRC_PROTO_LRC_H_
