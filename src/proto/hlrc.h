// Home-based lazy release consistency (the paper's HLRC contribution and its
// overlapped variant OHLRC).
//
// Every page has a home. At interval end, writers diff their dirty pages and
// flush the diffs to the homes, where they are applied immediately and
// discarded. A page fault is a single round trip to the home: the request
// carries the faulting node's required flush timestamps; the home answers
// with the whole page once its applied timestamps cover the request, queueing
// the request otherwise (paper §2.3, §2.4.2).
//
// OHLRC (overlapped()) runs diff creation (writer side), diff application
// (home side) and page servicing on the communication co-processor.
#ifndef SRC_PROTO_HLRC_H_
#define SRC_PROTO_HLRC_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/proto/home_table.h"
#include "src/proto/page_array.h"
#include "src/proto/protocol.h"

namespace hlrc {

class HlrcProtocol : public ProtocolNode {
 public:
  explicit HlrcProtocol(const Env& env);
  // Places the static homes over the allocated pages.
  void SetUsedPages(int used) override;

 protected:
  void OnIntervalClosed(IntervalRecord* rec, CloseActions* actions) override;
  bool OnWriteNotice(const IntervalPtr& rec, PageId page) override;
  Task<void> ResolveFault(PageId page, bool write) override;
  void HandleProtocolMessage(Message msg) override;
  int64_t SubclassMemoryBytes() const override;

  // Cost of capturing writes on a page (twin creation). The AURC subclass
  // overrides this to zero: automatic-update hardware snoops the bus.
  virtual SimTime WriteCaptureCost() const { return costs().TwinCost(pages().page_size()); }

  // How the diff of a non-home page leaves this node at interval close
  // (after the required-flush bookkeeping). HLRC charges its creation — on
  // the compute processor, or the co-processor when overlapped — and
  // flushes it to the home afterwards; AURC overrides it.
  virtual void ShipDiff(PageId page, uint32_t interval, Diff diff, CloseActions* actions);

  using Required = std::vector<std::pair<NodeId, uint32_t>>;
  // Immutable page snapshot shared between replies (request combining) and
  // with the delivered payload — same discipline as the interval log's
  // shared immutable batches.
  using PageSnapshot = std::shared_ptr<const std::vector<std::byte>>;

  struct FaultWait {
    PageSnapshot data;  // Page contents from the home's reply.
    // Set when a home transfer satisfied the fetch and already installed the
    // master (with twin rebase): the fetch path must not install again.
    bool already_installed = false;
    std::unique_ptr<Completion> done;
  };

  struct PendingReq {
    NodeId requester;
    Required required;
    // Span tracing: the parked request's causal context and park time, so the
    // home-wait stretch shows up on the requester's fault critical path.
    SpanId span = kNoSpan;
    SimTime parked_at = 0;
  };

  // Static home of a page under the configured policy.
  NodeId HomeOf(PageId page) const { return homes_.HomeOf(page); }
  // The node currently believed to home `page`: a migration override if one
  // is known, else the static assignment. Flushes still route via the static
  // home (whose forwarding keeps per-writer ordering); fetches chase the
  // believed home and learn the true one from the reply.
  NodeId BelievedHomeOf(PageId page) const;
  bool IsHomeHere(PageId page) const { return BelievedHomeOf(page) == self(); }
  // Records that `home` homes `page` (a migration this node learned of).
  void SetHomeOverride(PageId page, NodeId home);

  // Required-flush bookkeeping (faulting side). Protected: the AURC subclass
  // reuses the home machinery with a different update-capture model.
  // UpdateRequired returns the page's list after the update; RequiredOf is
  // empty for a page no write notice named yet.
  const Required& UpdateRequired(PageId page, NodeId writer, uint32_t id);
  const Required& RequiredOf(PageId page) const { return required_flush_.Get(page).pairs; }
  // Bumped whenever a page's required set grows; lets an in-flight fetch
  // detect that a new write notice arrived while it waited for the home.
  uint64_t RequiredEpoch(PageId page) const;

  // Applied-flush bookkeeping (home side).
  void SetApplied(PageId page, NodeId writer, uint32_t id);
  uint32_t GetApplied(PageId page, NodeId writer) const;
  bool AppliedSatisfies(PageId page, const Required& required) const;

  void SendDiffFlush(NodeId dst, NodeId writer, PageId page, uint32_t interval, Diff diff,
                     int64_t update_bytes);
  void SendPageRequest(NodeId dst, PageId page, NodeId requester, Required required);

  void HandleDiffFlush(NodeId writer, PageId page, uint32_t interval, const Diff& diff);
  void MaybeMigrateHome(PageId page, NodeId writer);
  void HandleHomeTransfer(PageId page, const std::vector<std::byte>& data,
                          const std::vector<uint32_t>& applied);
  void HandlePageRequest(PageId page, NodeId requester, Required required);
  // `snapshot` is null for a one-off reply (a fresh copy is taken); request
  // combining passes one shared snapshot to every reply of the same pass.
  void SendPageReply(PageId page, NodeId requester, PageSnapshot snapshot = nullptr);
  PageSnapshot SnapshotPage(PageId page);
  void ServePendingRequests(PageId page);
  void WakeLocalFaultIfReady(PageId page);

  // Per page homed here: the highest interval of each writer applied to the
  // master copy, one slot per node (empty for a page not homed here).
  PageArray<std::vector<uint32_t>> applied_flush_;
  int64_t applied_pages_ = 0;  // Pages with slots.
  std::unordered_map<PageId, std::vector<PendingReq>> pending_reqs_;
  // A page's required-flush list: the (writer, interval) pairs a fetch of
  // the page must see applied at the home. Lists only grow.
  struct RequiredFlush {
    Required pairs;
    uint64_t epoch = 0;  // See RequiredEpoch.
  };
  PageArray<RequiredFlush> required_flush_;
  int64_t required_pairs_ = 0;  // Sum of the lists' lengths.
  std::unordered_map<PageId, FaultWait> fault_waiting_;

  // Static homes; until SetUsedPages, placed over the whole space.
  HomeTable homes_;

  // Home migration state: per page, the home this node learned of, or
  // kInvalidNode for the static home.
  PageArray<NodeId> home_override_{kInvalidNode};
  int64_t home_overrides_ = 0;  // Pages with an override.
  struct WriterStreak {
    NodeId writer = kInvalidNode;
    int count = 0;
  };
  std::unordered_map<PageId, WriterStreak> writer_streak_;

  // Diffs created but not yet flushed (co-processor still working). Writers
  // discard diffs the moment they are sent (paper §2.3).
  int64_t inflight_diff_bytes_ = 0;

  // TestMutation::kHlrcSkipDiffApply fires once per run.
  bool mutation_fired_ = false;
};

// Payloads.

struct DiffFlushPayload : Payload {
  NodeId writer;
  PageId page;
  uint32_t interval;
  Diff diff;
};

struct HomePageRequestPayload : Payload {
  PageId page;
  NodeId requester;
  std::vector<std::pair<NodeId, uint32_t>> required;
};

struct HomePageReplyPayload : Payload {
  PageId page;
  NodeId home;  // The actual serving home (updates the requester's override).
  // Immutable: combined replies to concurrent requesters share one snapshot.
  std::shared_ptr<const std::vector<std::byte>> data;
};

struct HomeTransferPayload : Payload {
  PageId page;
  std::vector<std::byte> data;
  std::vector<uint32_t> applied;  // Per-writer applied flush timestamps.
};

}  // namespace hlrc

#endif  // SRC_PROTO_HLRC_H_
