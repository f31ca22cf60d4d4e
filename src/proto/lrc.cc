#include "src/proto/lrc.h"

#include <algorithm>
#include <utility>

namespace hlrc {

// ---------------------------------------------------------------------------
// Interval close: create diffs eagerly (paper §3: the implementation computes
// diffs at the end of each interval, on the compute processor for LRC and on
// the co-processor for OLRC).

void LrcProtocol::OnIntervalClosed(IntervalRecord* rec, CloseActions* actions) {
  PageList kept;
  for (PageId p : rec->pages) {
    Diff d = TakeTwinDiff(p);
    if (d.Empty()) {
      continue;  // The write changed nothing: no write notice needed.
    }
    kept.push_back(p);
    const SimTime create_cost = costs().DiffCreateCost(pages().page_size(), d.DataBytes());
    // With the lazy policy the diff work is deferred to the first request
    // (paper §2.1: diffs are created "eagerly, at the end of each interval,
    // or lazily, on demand"). Overlapped diffing is inherently asynchronous
    // already, so laziness applies to the compute-processor path only.
    const bool lazy = env().options->diff_policy == DiffPolicy::kLazy && !overlapped();
    ++stats_.diffs_created;
    MetricDiffCreated(p, d.DataBytes());
    SetCovered(p, self(), rec->id);

    StoredDiff sd;
    sd.bytes = d.EncodedSize();
    sd.diff = std::make_shared<const Diff>(std::move(d));
    sd.vt = rec->vt;
    sd.ready = !overlapped();
    sd.cost_charged = !lazy;
    sd.create_cost = create_cost;
    diff_store_bytes_ += sd.bytes;
    diff_store_.emplace(DiffKey{p, rec->id}, std::move(sd));
    // Interval ids grow monotonically, so plain assignment keeps the maximum.
    latest_diff_id_[p] = rec->id;

    if (overlapped()) {
      actions->post.push_back([this, p, id = rec->id, create_cost] {
        env().cop->RunService(create_cost, BusyCat::kDiffCreate,
                              [this, p, id] { MarkDiffReady(p, id); });
      });
    } else if (!lazy) {
      actions->diff_cost += create_cost;
    }
  }
  rec->pages = std::move(kept);
  NoteMemory();
}

void LrcProtocol::MarkDiffReady(PageId page, uint32_t id) {
  auto it = diff_store_.find(DiffKey{page, id});
  if (it == diff_store_.end()) {
    // A barrier-time garbage collection discarded the diff while its (purely
    // time-model) co-processor computation was still queued. No request can
    // arrive for it anymore: all pending write notices were collected too.
    HLRC_CHECK(diff_ready_waiters_.find(DiffKey{page, id}) == diff_ready_waiters_.end());
    return;
  }
  it->second.ready = true;
  auto wit = diff_ready_waiters_.find(DiffKey{page, id});
  if (wit != diff_ready_waiters_.end()) {
    std::vector<std::function<void()>> waiters = std::move(wit->second);
    diff_ready_waiters_.erase(wit);
    for (auto& w : waiters) {
      w();
    }
  }
}

// ---------------------------------------------------------------------------
// Write notices.

bool LrcProtocol::OnWriteNotice(const IntervalPtr& rec, PageId page) {
  const bool was_mapped = pages().State(page).prot() != PageProt::kNone;
  if (env().options->mutation == TestMutation::kLrcSkipInvalidate && !mutation_fired_ &&
      was_mapped) {
    // Seeded bug (TestMutation): drop the first invalidating write notice
    // entirely — the node keeps reading its stale mapped copy and never
    // fetches this interval's diff. The consistency oracle must catch it.
    mutation_fired_ = true;
    return false;
  }
  pending_[page].push_back(PendingWn{rec->writer, rec->id, rec});
  ++pending_count_;
  pages().SetProt(page, PageProt::kNone);
  return was_mapped;
}

bool LrcProtocol::HasPending(PageId page) const { return !pending_.Get(page).empty(); }

uint32_t LrcProtocol::GetCovered(PageId page, NodeId writer) const {
  const std::vector<uint32_t>& covered = covered_.Get(page);
  return covered.empty() ? 0 : covered[static_cast<size_t>(writer)];
}

void LrcProtocol::SetCovered(PageId page, NodeId writer, uint32_t id) {
  std::vector<uint32_t>& covered = covered_[page];
  if (covered.empty()) {
    covered.assign(static_cast<size_t>(nodes()), 0);
    ++covered_pages_;
  }
  uint32_t& slot = covered[static_cast<size_t>(writer)];
  slot = std::max(slot, id);
}

void LrcProtocol::PrunePendingCovered(PageId page) {
  std::vector<PendingWn>& vec = pending_[page];
  const size_t before = vec.size();
  vec.erase(std::remove_if(vec.begin(), vec.end(),
                           [this, page](const PendingWn& wn) {
                             return wn.id <= GetCovered(page, wn.writer);
                           }),
            vec.end());
  pending_count_ -= static_cast<int64_t>(before - vec.size());
}

// ---------------------------------------------------------------------------
// Fault resolution.

Task<void> LrcProtocol::ResolveFault(PageId page, bool write) {
  // As in the home-based protocol, every co_await can be crossed by a write
  // notice (barrier-manager interval application, charges stretched by
  // interrupts), so resolution restarts whenever the page is invalidated
  // mid-flight - the software equivalent of the store re-faulting.
  while (true) {
    if (pages().State(page).no_copy) {
      co_await FetchFullPage(page);
      continue;
    }
    if (HasPending(page)) {
      co_await FetchDiffs(page);
      continue;
    }
    if (pages().State(page).prot() == PageProt::kNone) {
      pages().SetProt(page, PageProt::kRead);
      co_await ChargeCpu(costs().page_protect, BusyCat::kFault);
      continue;  // Re-check: the charge may have crossed an invalidation.
    }
    if (!write) {
      co_return;
    }
    if (!pages().HasTwin(page)) {
      co_await ChargeCpu(costs().TwinCost(pages().page_size()), BusyCat::kTwin);
      if (pages().State(page).prot() == PageProt::kNone || HasPending(page)) {
        continue;  // Invalidated during the twin charge: the data is stale.
      }
      pages().MakeTwin(page);
    }
    pages().SetProt(page, PageProt::kReadWrite);
    co_await ChargeCpu(costs().page_protect, BusyCat::kFault);
    if (pages().State(page).prot() == PageProt::kNone) {
      continue;  // Invalidated during the protect charge.
    }
    MarkDirty(page);
    co_return;
  }
}

Task<void> LrcProtocol::FetchDiffs(PageId page) {
  // Group the page's pending write notices by writer; one request per writer
  // (paper §2.1: "the acquiring processor may have to visit more than one
  // processor to obtain diffs"). The per-writer buckets are reusable scratch
  // (filled and drained synchronously, before the suspension below), visited
  // in ascending writer order like the std::map they replaced.
  if (writer_bucket_.empty()) {
    writer_bucket_.resize(static_cast<size_t>(nodes()));
  }
  HLRC_DCHECK(writer_scratch_.empty());
  for (const PendingWn& wn : pending_.Get(page)) {
    std::vector<uint32_t>& bucket = writer_bucket_[static_cast<size_t>(wn.writer)];
    if (bucket.empty()) {
      writer_scratch_.push_back(wn.writer);
    }
    bucket.push_back(wn.id);
  }
  std::sort(writer_scratch_.begin(), writer_scratch_.end());
  HLRC_CHECK(!writer_scratch_.empty());

  HLRC_CHECK(faults_.find(page) == faults_.end());
  FaultCtx& ctx = faults_[page];
  ctx.replies_needed = static_cast<int>(writer_scratch_.size());
  ctx.done = std::make_unique<Completion>(engine());
  stats_.diff_requests_sent += static_cast<int64_t>(writer_scratch_.size());

  {
    // Chain the requests from the fault root (kNoSpan under GC validation).
    // Scoped: the context must not survive across the suspension below.
    SpanCause sc(this, cur_fault_span_);
    for (NodeId writer : writer_scratch_) {
      HLRC_CHECK(writer != self());
      std::vector<uint32_t>& ids = writer_bucket_[static_cast<size_t>(writer)];
      const int64_t id_count = static_cast<int64_t>(ids.size());
      auto payload = std::make_unique<DiffRequestPayload>();
      payload->page = page;
      payload->requester = self();
      payload->intervals = std::move(ids);
      ids.clear();  // Moved-from: make the bucket explicitly empty for reuse.
      Send(writer, MsgType::kDiffRequest, 0, 16 + 4 * id_count, std::move(payload));
    }
    writer_scratch_.clear();
  }

  co_await *ctx.done;

  auto collected = std::move(faults_[page].collected);
  faults_.erase(page);

  // Apply in happens-before order; concurrent diffs (false sharing) touch
  // disjoint words and get a deterministic tiebreak.
  std::sort(collected.begin(), collected.end(),
            [](const CollectedDiff& a, const CollectedDiff& b) {
              return ApplyOrderLess(*a.rec, *b.rec);
            });

  for (const CollectedDiff& c : collected) {
    const Diff& diff = *c.diff;
    const NodeId writer = c.rec->writer;
    const SimTime t_apply = engine()->Now();
    co_await ChargeCpu(costs().DiffApplyCost(diff.DataBytes()), BusyCat::kDiffApply);
    SpanEmit(SpanKind::kDiffApply, t_apply, cur_fault_span_, page, writer);
    ApplyDiff(diff, pages().PageData(page), pages().page_size());
    if (pages().HasTwin(page)) {
      // Keep the twin in sync so the next local diff contains only local
      // writes (multiple-writer correctness).
      ApplyDiff(diff, pages().State(page).twin, pages().page_size());
    }
    ++stats_.diffs_applied;
    MetricDiffApplied(page, diff.DataBytes());
    SetCovered(page, writer, c.rec->id);
  }
  PrunePendingCovered(page);
}

Task<void> LrcProtocol::FetchFullPage(PageId page) {
  auto hint = owner_hint_.find(page);
  const NodeId target = hint != owner_hint_.end() ? hint->second : 0;
  HLRC_CHECK(target != self());
  ++stats_.page_fetches;
  MetricFetch(page, pages().page_size());

  HLRC_CHECK(faults_.find(page) == faults_.end());
  FaultCtx& ctx = faults_[page];
  ctx.replies_needed = 1;
  ctx.done = std::make_unique<Completion>(engine());

  auto payload = std::make_unique<HomelessPageRequestPayload>();
  payload->page = page;
  payload->requester = self();
  {
    SpanCause sc(this, cur_fault_span_);
    Send(target, MsgType::kPageRequest, 0, 16, std::move(payload));
  }

  co_await *ctx.done;

  FaultCtx& done_ctx = faults_[page];
  InstallPageData(page, done_ctx.page_data);
  for (const auto& [writer, id] : done_ctx.page_covered) {
    SetCovered(page, writer, id);
  }
  faults_.erase(page);
  pages().State(page).no_copy = false;
  PrunePendingCovered(page);
}

// ---------------------------------------------------------------------------
// Remote request servicing.

void LrcProtocol::TrySendDiffReply(PageId page, NodeId requester,
                                   const std::vector<uint32_t>& ids) {
  auto payload = std::make_unique<DiffReplyPayload>();
  payload->page = page;
  payload->writer = self();
  payload->diffs.reserve(ids.size());
  int64_t update_bytes = 0;
  // Lazy policy: diffs whose creation cost has not been charged yet are
  // computed now, on the serving processor, before the reply goes out.
  SimTime deferred_cost = 0;
  for (uint32_t id : ids) {
    auto it = diff_store_.find(DiffKey{page, id});
    HLRC_CHECK_MSG(it != diff_store_.end(), "node %d: no diff for page %d interval %u", self(),
                   page, id);
    StoredDiff& sd = it->second;
    if (!sd.ready) {
      // Diff computation still in progress on the co-processor: queue the
      // request until it completes (paper §2.4.1). The retry runs from the
      // co-processor's completion, so re-establish the requester's causal
      // context explicitly. Only overlapped diffs are ever unready, and
      // those are never lazy, so no creation cost was claimed above.
      HLRC_DCHECK(deferred_cost == 0);
      diff_ready_waiters_[DiffKey{page, id}].push_back(
          [this, page, requester, ids, cause = active_span_] {
            SpanCause sc(this, cause);
            TrySendDiffReply(page, requester, ids);
          });
      return;
    }
    if (!sd.cost_charged) {
      sd.cost_charged = true;
      deferred_cost += sd.create_cost;
    }
    payload->diffs.emplace_back(id, sd.diff);
    update_bytes += sd.bytes;
  }
  auto send = [this, requester, update_bytes, payload = std::make_shared<
                   std::unique_ptr<DiffReplyPayload>>(std::move(payload))]() mutable {
    Send(requester, MsgType::kDiffReply, update_bytes, 16, std::move(*payload));
  };
  if (deferred_cost > 0) {
    // The lazy diff creation sits on the requester's critical path: record it
    // and chain the reply from it.
    const SimTime t0 = engine()->Now();
    env().cpu->RunService(deferred_cost, BusyCat::kDiffCreate,
                          [this, t0, page, cause = active_span_,
                           send = std::move(send)]() mutable {
                            SpanCause sc(this,
                                         SpanEmit(SpanKind::kDiffCreate, t0, cause, page));
                            send();
                          });
  } else {
    send();
  }
}

void LrcProtocol::ServePageRequest(PageId page, NodeId requester) {
  const PageState& st = pages().State(page);
  HLRC_CHECK_MSG(!st.no_copy, "node %d asked for page %d it does not hold", self(), page);
  auto payload = std::make_unique<HomelessPageReplyPayload>();
  payload->page = page;
  payload->data.assign(pages().PageData(page), pages().PageData(page) + pages().page_size());
  const std::vector<uint32_t>& covered = covered_.Get(page);
  for (size_t w = 0; w < covered.size(); ++w) {
    if (covered[w] > 0) {
      payload->covered.emplace_back(static_cast<NodeId>(w), covered[w]);
    }
  }
  const int64_t covered_bytes = 16 + 8 * static_cast<int64_t>(payload->covered.size());
  Send(requester, MsgType::kPageReply, pages().page_size(), covered_bytes,
       std::move(payload));
}

void LrcProtocol::HandleProtocolMessage(Message msg) {
  switch (msg.type) {
    case MsgType::kDiffRequest: {
      auto* p = static_cast<DiffRequestPayload*>(msg.payload.get());
      Serve(msg, Route::kData, costs().service_fixed, BusyCat::kService, p->page,
            [this, page = p->page, requester = p->requester, ids = std::move(p->intervals)] {
              TrySendDiffReply(page, requester, ids);
            });
      return;
    }
    case MsgType::kDiffReply: {
      auto* p = static_cast<DiffReplyPayload*>(msg.payload.get());
      Serve(msg, Route::kReply, 0, BusyCat::kService, p->page,
            [this, page = p->page, writer = p->writer, diffs = std::move(p->diffs)]() mutable {
              auto it = faults_.find(page);
              HLRC_CHECK(it != faults_.end());
              FaultCtx& ctx = it->second;
              const std::vector<PendingWn>& pend = pending_.Get(page);
              for (auto& [id, diff] : diffs) {
                // The pending write notice holds the record that orders the
                // diff's application.
                auto wit = std::find_if(pend.begin(), pend.end(), [&](const PendingWn& wn) {
                  return wn.writer == writer && wn.id == id;
                });
                HLRC_CHECK(wit != pend.end());
                ctx.collected.push_back(CollectedDiff{wit->rec, std::move(diff)});
              }
              if (--ctx.replies_needed == 0) {
                ctx.done->Complete();
              }
            });
      return;
    }
    case MsgType::kPageRequest: {
      auto* p = static_cast<HomelessPageRequestPayload*>(msg.payload.get());
      Serve(msg, Route::kData, costs().service_fixed, BusyCat::kService, p->page,
            [this, page = p->page, requester = p->requester] {
              ServePageRequest(page, requester);
            });
      return;
    }
    case MsgType::kPageReply: {
      auto* p = static_cast<HomelessPageReplyPayload*>(msg.payload.get());
      Serve(msg, Route::kReply, costs().page_protect, BusyCat::kFault, p->page,
            [this, page = p->page, data = std::move(p->data),
             covered = std::move(p->covered)]() mutable {
              auto it = faults_.find(page);
              HLRC_CHECK(it != faults_.end());
              it->second.page_data = std::move(data);
              it->second.page_covered = std::move(covered);
              if (--it->second.replies_needed == 0) {
                it->second.done->Complete();
              }
            });
      return;
    }
    case MsgType::kGcRequest: {
      Serve(msg, Route::kRequest,
            costs().gc_fixed + costs().gc_per_page * static_cast<SimTime>(diff_store_.size()),
            BusyCat::kGc, 0, [this] { HandleGcRequest(); });
      return;
    }
    case MsgType::kGcInfo: {
      auto* p = static_cast<GcInfoPayload*>(msg.payload.get());
      // Costed before the handler moves the entries away.
      const SimTime cost = costs().gc_per_page * static_cast<SimTime>(p->entries.size());
      Serve(msg, Route::kReply, cost, BusyCat::kGc, 0,
            [this, node = p->node, entries = std::move(p->entries)]() mutable {
              HandleGcInfo(node, std::move(entries));
            });
      return;
    }
    case MsgType::kGcValidate: {
      auto* p = static_cast<GcValidatePayload*>(msg.payload.get());
      const SimTime cost = costs().gc_per_page * static_cast<SimTime>(p->validators.size());
      Serve(msg, Route::kRequest, cost, BusyCat::kGc, 0,
            [this, validators = std::move(p->validators), intervals = std::move(p->intervals)] {
              ApplyGcValidate(validators, intervals);
            });
      return;
    }
    case MsgType::kGcDone: {
      Serve(msg, Route::kReply, costs().gc_fixed, BusyCat::kGc, 0, [this] { HandleGcDone(); });
      return;
    }
    default:
      HLRC_CHECK_MSG(false, "LRC node %d: unexpected message type %d", self(),
                     static_cast<int>(msg.type));
  }
}

// ---------------------------------------------------------------------------
// Garbage collection (paper §3.5). Orchestrated by the barrier manager while
// all nodes sit inside the barrier: collect diff inventories, let the last
// writer of each page validate its copy by fetching the missing diffs, then
// discard all diffs and write notices on release.

Task<void> LrcProtocol::BarrierPreRelease(BarrierId barrier, bool mem_pressure) {
  if (!mem_pressure) {
    co_return;
  }
  HLRC_CHECK(gc_coord_ == nullptr);
  gc_coord_ = std::make_unique<GcCoord>();
  gc_coord_->infos_pending = nodes();
  gc_coord_->dones_pending = nodes();
  gc_coord_->infos_done = std::make_unique<Completion>(engine());
  gc_coord_->dones_done = std::make_unique<Completion>(engine());

  {
    // GC happens while every node sits inside the barrier: chain it from the
    // manager's gather span so the cost lands on the barrier critical path.
    SpanCause sc(this, BarrierGatherSpan(barrier));
    for (NodeId n = 0; n < nodes(); ++n) {
      if (n == self()) {
        HandleGcRequest();
      } else {
        Send(n, MsgType::kGcRequest, 0, 8, std::make_unique<GcRequestPayload>());
      }
    }
  }
  co_await *gc_coord_->infos_done;

  // Assign validators: the last writer (maximal interval vt) of each page.
  std::vector<std::pair<PageId, NodeId>> validators;
  validators.reserve(gc_coord_->best.size());
  for (const auto& [page, best] : gc_coord_->best) {
    validators.emplace_back(page, best.second);
  }

  {
    SpanCause sc(this, BarrierGatherSpan(barrier));
    for (NodeId n = 0; n < nodes(); ++n) {
      IntervalBatch missing = PackBarrierReleaseFor(barrier, n);
      if (n == self()) {
        ApplyGcValidate(validators, missing);
      } else {
        const int64_t bytes =
            8 + 8 * static_cast<int64_t>(validators.size()) + BatchBytes(missing);
        auto payload = std::make_unique<GcValidatePayload>();
        payload->validators = validators;
        payload->intervals = std::move(missing);
        Send(n, MsgType::kGcValidate, 0, bytes, std::move(payload));
      }
    }
  }
  co_await *gc_coord_->dones_done;
  gc_coord_.reset();
}

void LrcProtocol::HandleGcRequest() {
  // Report, per page we hold diffs for, our latest interval that wrote it.
  // The inventory index is maintained incrementally at diff creation, so this
  // is a sort of its keys, not a scan of the whole diff store.
  std::vector<PageId> inventory;
  inventory.reserve(latest_diff_id_.size());
  for (const auto& [page, id] : latest_diff_id_) {
    inventory.push_back(page);
  }
  std::sort(inventory.begin(), inventory.end());
  std::vector<std::tuple<PageId, uint32_t, VectorClock>> entries;
  entries.reserve(inventory.size());
  for (PageId page : inventory) {
    const uint32_t id = latest_diff_id_.at(page);
    entries.emplace_back(page, id, diff_store_.at(DiffKey{page, id}).vt);
  }

  const NodeId manager = 0;  // Barrier manager runs GC.
  if (self() == manager) {
    HandleGcInfo(self(), std::move(entries));
  } else {
    const int64_t bytes =
        8 + static_cast<int64_t>(entries.size()) * (12 + 4 * static_cast<int64_t>(nodes()));
    auto payload = std::make_unique<GcInfoPayload>();
    payload->node = self();
    payload->entries = std::move(entries);
    Send(manager, MsgType::kGcInfo, 0, bytes, std::move(payload));
  }
}

void LrcProtocol::HandleGcInfo(NodeId node,
                               std::vector<std::tuple<PageId, uint32_t, VectorClock>> entries) {
  HLRC_CHECK(gc_coord_ != nullptr);
  for (auto& [page, id, vt] : entries) {
    auto it = gc_coord_->best.find(page);
    if (it == gc_coord_->best.end() || it->second.first.TotalOrderLess(vt)) {
      gc_coord_->best[page] = {std::move(vt), node};
    }
  }
  if (--gc_coord_->infos_pending == 0) {
    gc_coord_->infos_done->Complete();
  }
}

void LrcProtocol::ApplyGcValidate(const std::vector<std::pair<PageId, NodeId>>& validators,
                                  const IntervalBatch& intervals) {
  HLRC_CHECK(gc_map_.empty());
  // Learn every pre-barrier interval now (the barrier release will re-send
  // them and dedup) so validation sees the complete pending sets.
  const SimTime wn_cost = ApplyIntervals(intervals);
  env().cpu->RunService(wn_cost, BusyCat::kWriteNotice, [] {});
  std::vector<PageId> mine;
  for (const auto& [page, validator] : validators) {
    gc_map_[page] = validator;
    if (validator == self() && HasPending(page)) {
      mine.push_back(page);
    }
  }
  SpawnDetached(ValidateForGc(std::move(mine)));
}

Task<void> LrcProtocol::ValidateForGc(std::vector<PageId> validate_pages) {
  WaitScope ws(this, WaitCat::kGc, WaitCat::kBarrier);
  for (PageId p : validate_pages) {
    co_await ChargeCpu(costs().gc_per_page, BusyCat::kGc);
    while (HasPending(p)) {
      co_await FetchDiffs(p);
    }
  }
  ws.Finish();

  const NodeId manager = 0;
  if (self() == manager) {
    HandleGcDone();
  } else {
    auto payload = std::make_unique<GcDonePayload>();
    payload->node = self();
    Send(manager, MsgType::kGcDone, 0, 8, std::move(payload));
  }
}

void LrcProtocol::HandleGcDone() {
  HLRC_CHECK(gc_coord_ != nullptr);
  if (--gc_coord_->dones_pending == 0) {
    gc_coord_->dones_done->Complete();
  }
}

void LrcProtocol::OnBarrierReleased() {
  if (gc_map_.empty()) {
    return;
  }
  ++stats_.gc_runs;
  const SimTime cost =
      costs().gc_fixed + costs().gc_per_page * static_cast<SimTime>(gc_map_.size());

  for (const auto& [page, validator] : gc_map_) {
    owner_hint_[page] = validator;
    if (validator != self() && HasPending(page)) {
      // Stale copy whose diffs are about to disappear: drop it; the next
      // access fetches the whole page from the validator. This runs at a
      // barrier, when no grant is open, so no scan depends on this loss; it
      // is counted anyway, like every other.
      pages().State(page).no_copy = true;
      pages().SetProt(page, PageProt::kNone);
      std::vector<PendingWn>& pending = pending_[page];
      pending_count_ -= static_cast<int64_t>(pending.size());
      pending.clear();
      std::vector<uint32_t>& covered = covered_[page];
      if (!covered.empty()) {
        covered.clear();
        --covered_pages_;
      }
    }
  }
  diff_store_.clear();
  diff_store_bytes_ = 0;
  latest_diff_id_.clear();
  gc_map_.clear();
  env().cpu->RunService(cost, BusyCat::kGc, [] {});
  NoteMemory();
}

int64_t LrcProtocol::SubclassMemoryBytes() const {
  // Pending write notices carry the writer's full vector timestamp in the
  // homeless protocols (paper §4.7), so each costs 8 + 4N bytes.
  const int64_t wn_bytes = pending_count_ * (8 + 4 * static_cast<int64_t>(nodes()));
  const int64_t covered_bytes = covered_pages_ * 4 * static_cast<int64_t>(nodes());
  return diff_store_bytes_ + wn_bytes + covered_bytes +
         static_cast<int64_t>(owner_hint_.size()) * 8;
}

}  // namespace hlrc
