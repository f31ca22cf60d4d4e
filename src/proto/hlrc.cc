#include "src/proto/hlrc.h"

#include <algorithm>
#include <utility>

namespace hlrc {
namespace {

// The static home placement of `env`'s node with `used_pages` allocated
// pages (0: the whole space).
HomePlacement PlacementOf(const ProtocolNode::Env& env, int used_pages) {
  return HomePlacement{env.options->home_policy, env.nodes, env.space, used_pages,
                       env.pages->num_pages()};
}

}  // namespace

HlrcProtocol::HlrcProtocol(const Env& env) : ProtocolNode(env), homes_(PlacementOf(env, 0)) {}

void HlrcProtocol::SetUsedPages(int used) { homes_ = HomeTable(PlacementOf(env(), used)); }

// ---------------------------------------------------------------------------
// Required / applied flush timestamp bookkeeping.

const HlrcProtocol::Required& HlrcProtocol::UpdateRequired(PageId page, NodeId writer,
                                                           uint32_t id) {
  RequiredFlush& rf = required_flush_[page];
  for (auto& [w, i] : rf.pairs) {
    if (w == writer) {
      if (id > i) {
        i = id;
        ++rf.epoch;
      }
      return rf.pairs;
    }
  }
  rf.pairs.emplace_back(writer, id);
  ++rf.epoch;
  ++required_pairs_;
  return rf.pairs;
}

uint64_t HlrcProtocol::RequiredEpoch(PageId page) const {
  return required_flush_.Get(page).epoch;
}

NodeId HlrcProtocol::BelievedHomeOf(PageId page) const {
  const NodeId home = home_override_.Get(page);
  return home == kInvalidNode ? HomeOf(page) : home;
}

void HlrcProtocol::SetHomeOverride(PageId page, NodeId home) {
  NodeId& slot = home_override_[page];
  if (slot == kInvalidNode) {
    ++home_overrides_;
  }
  slot = home;
}

void HlrcProtocol::SetApplied(PageId page, NodeId writer, uint32_t id) {
  std::vector<uint32_t>& applied = applied_flush_[page];
  if (applied.empty()) {
    applied.assign(static_cast<size_t>(nodes()), 0);
    ++applied_pages_;
  }
  uint32_t& slot = applied[static_cast<size_t>(writer)];
  slot = std::max(slot, id);
}

uint32_t HlrcProtocol::GetApplied(PageId page, NodeId writer) const {
  const std::vector<uint32_t>& applied = applied_flush_.Get(page);
  return applied.empty() ? 0 : applied[static_cast<size_t>(writer)];
}

bool HlrcProtocol::AppliedSatisfies(PageId page, const Required& required) const {
  for (const auto& [writer, id] : required) {
    if (GetApplied(page, writer) < id) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Interval close: diff dirty pages and flush them to their homes. Pages homed
// here update the master copy in place — no twin, no diff (the "home
// effect", paper §4.4).

void HlrcProtocol::OnIntervalClosed(IntervalRecord* rec, CloseActions* actions) {
  PageList kept;
  for (PageId p : rec->pages) {
    // The home-effect test uses the believed home: a node that just became
    // the home via migration made no twin. Flushes still route via the
    // static home, which forwards along a fixed path after a migration,
    // preserving per-writer order.
    if (IsHomeHere(p)) {
      HLRC_CHECK(!pages().HasTwin(p));
      SetApplied(p, self(), rec->id);
      writer_streak_.erase(p);  // The home is writing: no migration streak.
      kept.push_back(p);
      continue;
    }
    Diff d = TakeTwinDiff(p);
    if (d.Empty()) {
      continue;  // Nothing changed: no write notice, no flush.
    }
    kept.push_back(p);
    // A later fetch of this page must not return a home copy that predates
    // our own flush, or our writes would be lost: require our own interval.
    UpdateRequired(p, self(), rec->id);
    ShipDiff(p, rec->id, std::move(d), actions);
  }
  rec->pages = std::move(kept);
}

void HlrcProtocol::ShipDiff(PageId page, uint32_t interval, Diff diff, CloseActions* actions) {
  ++stats_.diffs_created;
  MetricDiffCreated(page, diff.DataBytes());
  const SimTime create_cost = costs().DiffCreateCost(pages().page_size(), diff.DataBytes());
  const int64_t diff_bytes = diff.EncodedSize();
  inflight_diff_bytes_ += diff_bytes;
  NoteMemory();

  const SpanId cause = interval_close_span();
  auto send = [this, home = HomeOf(page), page, interval, diff_bytes, cause,
               diff = std::make_shared<Diff>(std::move(diff))] {
    // The flush is causally part of the interval close, not of whatever
    // message happens to be in service when the co-processor finishes.
    SpanCause sc(this, cause);
    inflight_diff_bytes_ -= diff_bytes;
    SendDiffFlush(home, self(), page, interval, std::move(*diff), diff_bytes);
  };
  if (!overlapped()) {
    // Computed on the compute processor with the close; sent right after,
    // one message per diff (paper §4.6).
    actions->diff_cost += create_cost;
    actions->post.push_back(std::move(send));
    return;
  }
  // Overlapped: the co-processor computes the diff and sends it to the home
  // when done; the compute processor continues immediately.
  actions->post.push_back([this, create_cost, cause, send = std::move(send)] {
    const SimTime t0 = engine()->Now();
    env().cop->RunService(create_cost, BusyCat::kDiffCreate, [this, t0, cause, send] {
      SpanEmit(SpanKind::kDiffCreate, t0, cause);
      send();
    });
  });
}

void HlrcProtocol::SendDiffFlush(NodeId dst, NodeId writer, PageId page, uint32_t interval,
                                 Diff diff, int64_t update_bytes) {
  auto payload = std::make_unique<DiffFlushPayload>();
  payload->writer = writer;
  payload->page = page;
  payload->interval = interval;
  payload->diff = std::move(diff);
  Send(dst, MsgType::kDiffFlush, update_bytes, 16, std::move(payload));
}

void HlrcProtocol::SendPageRequest(NodeId dst, PageId page, NodeId requester,
                                   Required required) {
  const int64_t bytes = 16 + 8 * static_cast<int64_t>(required.size());
  auto payload = std::make_unique<HomePageRequestPayload>();
  payload->page = page;
  payload->requester = requester;
  payload->required = std::move(required);
  Send(dst, MsgType::kPageRequest, 0, bytes, std::move(payload));
}

// ---------------------------------------------------------------------------
// Write notices.

bool HlrcProtocol::OnWriteNotice(const IntervalPtr& rec, PageId page) {
  const Required& req = UpdateRequired(page, rec->writer, rec->id);
  if (IsHomeHere(page)) {
    // The master copy lives here. If the announced diffs have already been
    // applied there is nothing to do — this is why home accesses take no
    // page faults. Only an in-flight diff forces a temporary invalidation.
    if (AppliedSatisfies(page, req)) {
      return false;
    }
  }
  const bool was_mapped = pages().State(page).prot() != PageProt::kNone;
  pages().SetProt(page, PageProt::kNone);
  return was_mapped;
}

// ---------------------------------------------------------------------------
// Fault resolution: one round trip to the home (paper §2.3).

Task<void> HlrcProtocol::ResolveFault(PageId page, bool write) {
  // Every co_await below is a point where a write notice can invalidate this
  // page (e.g. the barrier manager applies other nodes' notices whenever an
  // enter message arrives, even mid-computation, and cost charges stretch
  // under interrupt load). The outer loop therefore re-checks the protection
  // after every suspension and restarts resolution if the page went invalid -
  // the software equivalent of the store re-faulting on real hardware.
  while (true) {
  const NodeId home = BelievedHomeOf(page);
  if (pages().State(page).prot() == PageProt::kNone) {
    if (home == self()) {
      // Wait for in-flight diffs to land on the master copy; purely local.
      // Loop: new write notices may extend the requirement while waiting.
      while (!AppliedSatisfies(page, RequiredOf(page))) {
        HLRC_CHECK(fault_waiting_.find(page) == fault_waiting_.end());
        FaultWait& fw = fault_waiting_[page];
        fw.done = std::make_unique<Completion>(engine());
        co_await *fw.done;
        fault_waiting_.erase(page);
      }
    } else {
      // Fetch from the home. If a new write notice for this page arrives
      // while the request is in flight (e.g. the barrier manager applying
      // another node's notices mid-computation), the reply predates the
      // newly-announced diff: fetch again.
      while (true) {
        const uint64_t epoch = RequiredEpoch(page);
        ++stats_.page_fetches;
        MetricFetch(page, pages().page_size());
        HLRC_CHECK(fault_waiting_.find(page) == fault_waiting_.end());
        FaultWait& fw = fault_waiting_[page];
        fw.done = std::make_unique<Completion>(engine());

        {
          // Chain the request from the fault root (scoped: the context must
          // not survive across the suspension below).
          SpanCause sc(this, cur_fault_span_);
          SendPageRequest(home, page, self(), RequiredOf(page));
        }

        co_await *fw.done;
        FaultWait& done_fw = fault_waiting_[page];
        const bool transfer_satisfied = done_fw.already_installed;
        if (!transfer_satisfied) {
          InstallPageData(page, *done_fw.data);
        }
        fault_waiting_.erase(page);
        if (transfer_satisfied || RequiredEpoch(page) == epoch) {
          // A home transfer made this node the page's home: its copy IS the
          // master now; no re-fetch regardless of epoch churn.
          break;
        }
      }
    }
    pages().SetProt(page, PageProt::kRead);
    co_await ChargeCpu(costs().page_protect, BusyCat::kFault);
    continue;  // Re-check: the charge may have crossed an invalidation.
  }
  if (!write) {
    co_return;
  }
  if (BelievedHomeOf(page) != self() && !pages().HasTwin(page)) {
    co_await ChargeCpu(WriteCaptureCost(), BusyCat::kTwin);
    if (pages().State(page).prot() == PageProt::kNone) {
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

// ---------------------------------------------------------------------------
// Home-side servicing.

void HlrcProtocol::HandleDiffFlush(NodeId writer, PageId page, uint32_t interval,
                                   const Diff& diff) {
  if (!IsHomeHere(page)) {
    // The page's home migrated away: forward along the (fixed) chain. FIFO
    // per network pair keeps each writer's diffs ordered end to end.
    SendDiffFlush(BelievedHomeOf(page), writer, page, interval, diff, diff.EncodedSize());
    return;
  }
  if (env().options->mutation == TestMutation::kHlrcSkipDiffApply && !mutation_fired_ &&
      writer != self()) {
    // Seeded bug (TestMutation): lose this diff's data but keep all the
    // bookkeeping below, so the home serves a stale master copy without ever
    // blocking a fetch. The consistency oracle must catch the stale reads.
    mutation_fired_ = true;
  } else {
    ApplyDiff(diff, pages().PageData(page), pages().page_size());
  }
  ++stats_.diffs_applied;
  MetricDiffApplied(page, diff.DataBytes());
  SetApplied(page, writer, interval);
  WakeLocalFaultIfReady(page);
  ServePendingRequests(page);
  MaybeMigrateHome(page, writer);
}

void HlrcProtocol::MaybeMigrateHome(PageId page, NodeId writer) {
  if (!env().options->migrate_homes || writer == self()) {
    return;
  }
  if (fault_waiting_.find(page) != fault_waiting_.end()) {
    // A local access is waiting for this page's in-flight diffs; migrating
    // now would forward those diffs to the new home and strand the waiter.
    return;
  }
  if (pages().State(page).dirty) {
    // Our own open interval is writing the master in place (home effect);
    // handing the page away now would orphan those uncommitted writes.
    return;
  }
  WriterStreak& streak = writer_streak_[page];
  if (streak.writer != writer) {
    streak.writer = writer;
    streak.count = 0;
  }
  if (++streak.count < kMigrateThreshold) {
    return;
  }
  // A stable remote single writer: hand it the home so its future writes hit
  // the home effect (no twins, no diffs, no flushes).
  writer_streak_.erase(page);
  auto payload = std::make_unique<HomeTransferPayload>();
  payload->page = page;
  payload->data.assign(pages().PageData(page), pages().PageData(page) + pages().page_size());
  std::vector<uint32_t>& applied = applied_flush_[page];
  if (applied.empty()) {
    payload->applied.assign(static_cast<size_t>(nodes()), 0);
  } else {
    payload->applied = std::move(applied);
    applied.clear();
    --applied_pages_;
  }
  SetHomeOverride(page, writer);
  // Any parked requests chase the new home.
  auto pit = pending_reqs_.find(page);
  if (pit != pending_reqs_.end()) {
    std::vector<PendingReq> reqs = std::move(pit->second);
    pending_reqs_.erase(pit);
    for (PendingReq& req : reqs) {
      SendPageRequest(writer, page, req.requester, std::move(req.required));
    }
  }
  const int64_t transfer_bytes = 16 + 4 * static_cast<int64_t>(payload->applied.size());
  Send(writer, MsgType::kHomeTransfer, pages().page_size(), transfer_bytes,
       std::move(payload));
}

void HlrcProtocol::HandleHomeTransfer(PageId page, const std::vector<std::byte>& data,
                                      const std::vector<uint32_t>& applied) {
  // Become the page's home: adopt the master copy (rebasing any local open
  // writes) and the applied-flush state.
  InstallPageData(page, data);
  pages().DropTwin(page);  // The master needs no twin at its home.
  HLRC_CHECK(applied.size() == static_cast<size_t>(nodes()));
  std::vector<uint32_t>& slots = applied_flush_[page];
  if (slots.empty()) {
    ++applied_pages_;
  }
  slots = applied;
  SetApplied(page, self(), vt().Get(self()));
  SetHomeOverride(page, self());
  if (pages().State(page).prot() == PageProt::kNone) {
    pages().SetProt(page, PageProt::kRead);
  }
  // A fetch of this very page may be in flight (we asked the old home just
  // before becoming the home): the transferred master satisfies it. The
  // now-redundant forwarded reply is dropped on arrival.
  auto fit = fault_waiting_.find(page);
  if (fit != fault_waiting_.end() && fit->second.done != nullptr &&
      !fit->second.done->IsDone()) {
    fit->second.already_installed = true;  // InstallPageData above covered it.
    fit->second.done->Complete();
  }
  ServePendingRequests(page);
}

void HlrcProtocol::WakeLocalFaultIfReady(PageId page) {
  auto it = fault_waiting_.find(page);
  if (it == fault_waiting_.end() || it->second.done == nullptr) {
    return;
  }
  if (AppliedSatisfies(page, RequiredOf(page))) {
    it->second.done->Complete();
  }
}

void HlrcProtocol::HandlePageRequest(PageId page, NodeId requester, Required required) {
  if (!IsHomeHere(page)) {
    SendPageRequest(BelievedHomeOf(page), page, requester, std::move(required));
    return;
  }
  if (AppliedSatisfies(page, required)) {
    SendPageReply(page, requester);
    return;
  }
  // Some diffs are still in flight: park the request until they land
  // (paper §2.4.2).
  pending_reqs_[page].push_back(
      PendingReq{requester, std::move(required), active_span_, engine()->Now()});
}

HlrcProtocol::PageSnapshot HlrcProtocol::SnapshotPage(PageId page) {
  const std::byte* src = pages().PageData(page);
  return std::make_shared<const std::vector<std::byte>>(src, src + pages().page_size());
}

void HlrcProtocol::SendPageReply(PageId page, NodeId requester, PageSnapshot snapshot) {
  auto payload = std::make_unique<HomePageReplyPayload>();
  payload->page = page;
  payload->home = self();
  payload->data = snapshot != nullptr ? std::move(snapshot) : SnapshotPage(page);
  Send(requester, MsgType::kPageReply, pages().page_size(), 16, std::move(payload));
}

void HlrcProtocol::ServePendingRequests(PageId page) {
  auto it = pending_reqs_.find(page);
  if (it == pending_reqs_.end()) {
    return;
  }
  auto& reqs = it->second;
  // Request combining (the coalesced wire plane, NetworkConfig::coalesce):
  // every parked request this pass satisfies is answered from one shared
  // immutable snapshot — the master copy cannot change between replies (we
  // are inside one service handler), so copying it per requester is pure
  // overhead. Off: one private copy per reply, matching the golden runs byte
  // for byte.
  const bool combine = env().network->config().coalesce;
  PageSnapshot snapshot;
  int64_t shared_replies = 0;
  for (auto rit = reqs.begin(); rit != reqs.end();) {
    if (AppliedSatisfies(page, rit->required)) {
      // The stretch this request sat parked waiting for in-flight diffs:
      // charged to the home, chained from the parked request so it lands on
      // the requester's fault critical path.
      const SpanId hw = SpanEmit(SpanKind::kHomeWait, rit->parked_at, rit->span, page,
                                 rit->requester);
      SpanCause sc(this, hw);
      if (combine) {
        if (snapshot == nullptr) {
          snapshot = SnapshotPage(page);
        }
        ++shared_replies;
        SendPageReply(page, rit->requester, snapshot);
      } else {
        SendPageReply(page, rit->requester);
      }
      rit = reqs.erase(rit);
    } else {
      ++rit;
    }
  }
  if (shared_replies >= 2) {
    stats_.page_replies_combined += shared_replies;
  }
  if (reqs.empty()) {
    pending_reqs_.erase(it);
  }
}

void HlrcProtocol::HandleProtocolMessage(Message msg) {
  switch (msg.type) {
    case MsgType::kDiffFlush: {
      auto* p = static_cast<DiffFlushPayload*>(msg.payload.get());
      const SimTime cost = costs().DiffApplyCost(p->diff.DataBytes());
      // Applying the diff at the home: co-processor under OHLRC, interrupt +
      // compute processor under HLRC.
      Serve(msg, Route::kData, cost, BusyCat::kDiffApply, p->page,
            [this, writer = p->writer, page = p->page, interval = p->interval,
             diff = std::move(p->diff)] { HandleDiffFlush(writer, page, interval, diff); });
      return;
    }
    case MsgType::kPageRequest: {
      auto* p = static_cast<HomePageRequestPayload*>(msg.payload.get());
      Serve(msg, Route::kData, costs().service_fixed, BusyCat::kService, p->page,
            [this, page = p->page, requester = p->requester,
             required = std::move(p->required)]() mutable {
              HandlePageRequest(page, requester, std::move(required));
            });
      return;
    }
    case MsgType::kPageReply: {
      auto* p = static_cast<HomePageReplyPayload*>(msg.payload.get());
      Serve(msg, Route::kReply, 0, BusyCat::kService, p->page,
            [this, page = p->page, home = p->home, data = std::move(p->data)]() mutable {
              if (home != self() &&
                  (home != HomeOf(page) || home_override_.Get(page) != kInvalidNode)) {
                SetHomeOverride(page, home);  // Path shortening after migration.
              }
              auto it = fault_waiting_.find(page);
              if (it == fault_waiting_.end() || it->second.done == nullptr ||
                  it->second.done->IsDone()) {
                // The fetch was already satisfied by a home transfer (this is
                // the forwarded reply catching up) — drop it.
                return;
              }
              it->second.data = std::move(data);
              it->second.done->Complete();
            });
      return;
    }
    case MsgType::kHomeTransfer: {
      auto* p = static_cast<HomeTransferPayload*>(msg.payload.get());
      Serve(msg, Route::kData, costs().service_fixed, BusyCat::kService, p->page,
            [this, page = p->page, data = std::move(p->data), applied = std::move(p->applied)] {
              HandleHomeTransfer(page, data, applied);
            });
      return;
    }
    default:
      HLRC_CHECK_MSG(false, "HLRC node %d: unexpected message type %d", self(),
                     static_cast<int>(msg.type));
  }
}

int64_t HlrcProtocol::SubclassMemoryBytes() const {
  // Home-based protocol data: per-page flush timestamps and transient diffs.
  // Write notices carry no vector timestamps (paper §4.7).
  const int64_t required_bytes = 8 * required_pairs_;
  const int64_t applied_bytes = applied_pages_ * 4 * static_cast<int64_t>(nodes());
  const int64_t migration_bytes =
      home_overrides_ * 8 + static_cast<int64_t>(writer_streak_.size()) * 12;
  return required_bytes + applied_bytes + inflight_diff_bytes_ + migration_bytes;
}

}  // namespace hlrc
