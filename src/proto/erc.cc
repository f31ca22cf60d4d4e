#include "src/proto/erc.h"

#include <utility>

namespace hlrc {

void ErcProtocol::OnIntervalClosed(IntervalRecord* rec, CloseActions* actions) {
  std::vector<Diff> diffs;
  int64_t update_bytes = 0;
  for (PageId p : rec->pages) {
    Diff d = TakeTwinDiff(p);
    if (d.Empty()) {
      continue;
    }
    ++stats_.diffs_created;
    MetricDiffCreated(p, d.DataBytes());
    actions->diff_cost += costs().DiffCreateCost(pages().page_size(), d.DataBytes());
    update_bytes += d.EncodedSize();
    diffs.push_back(std::move(d));
  }
  // Eager RC records no intervals and sends no write notices: visibility is
  // achieved by the update broadcast itself, so the record stays empty.
  rec->pages.clear();
  if (diffs.empty()) {
    return;
  }

  if (nodes() == 1) {
    return;
  }
  // Register the outstanding flush NOW, synchronously with the interval
  // close: from this instant the writes are committed to propagate, and any
  // grant or barrier enter must wait for the acknowledgements even though the
  // messages only leave after the diff costs have been charged.
  const uint64_t flush_id = next_flush_id_++;
  flushes_[flush_id] = nodes() - 1;
  actions->post.push_back([this, flush_id, diffs = std::move(diffs), update_bytes,
                           cause = interval_close_span()] {
    SpanCause sc(this, cause);
    // Broadcast the updates to every other copy (all nodes hold copies:
    // nothing is ever invalidated under an update protocol). The flush is
    // fire-and-forget here; FlushBarrier gates outgoing grants and barrier
    // enters until every outstanding flush is acknowledged.
    for (NodeId n = 0; n < nodes(); ++n) {
      if (n == self()) {
        continue;
      }
      auto payload = std::make_unique<ErcUpdatePayload>();
      payload->writer = self();
      payload->flush_id = flush_id;
      payload->diffs = diffs;  // Copy: one message per receiver.
      Send(n, MsgType::kDiffFlush, update_bytes, 16, std::move(payload));
    }
  });
}

void ErcProtocol::FlushBarrier(std::function<void()> done) {
  if (flushes_.empty()) {
    done();
    return;
  }
  flush_waiters_.push_back(std::move(done));
}

bool ErcProtocol::OnWriteNotice(const IntervalPtr& /*rec*/, PageId /*page*/) {
  // Never reached: no interval records are published (see OnIntervalClosed).
  return false;
}

Task<void> ErcProtocol::ResolveFault(PageId page, bool write) {
  // Pages are always valid; only write-protection upgrades fault.
  HLRC_CHECK(pages().State(page).prot() != PageProt::kNone);
  if (!write) {
    co_return;
  }
  while (true) {
    if (!pages().HasTwin(page)) {
      co_await ChargeCpu(costs().TwinCost(pages().page_size()), BusyCat::kTwin);
      pages().MakeTwin(page);
    }
    pages().SetProt(page, PageProt::kReadWrite);
    co_await ChargeCpu(costs().page_protect, BusyCat::kFault);
    // Incoming updates never invalidate, so the grant is stable.
    MarkDirty(page);
    co_return;
  }
}

void ErcProtocol::HandleUpdate(NodeId writer, uint64_t flush_id, std::vector<Diff> diffs) {
  for (const Diff& d : diffs) {
    ApplyDiff(d, pages().PageData(d.page), pages().page_size());
    if (pages().HasTwin(d.page)) {
      // Concurrent local writes on a falsely-shared page: keep the twin in
      // sync so the local diff stays disjoint.
      ApplyDiff(d, pages().State(d.page).twin, pages().page_size());
    }
    ++stats_.diffs_applied;
    MetricDiffApplied(d.page, d.DataBytes());
  }
  auto payload = std::make_unique<ErcAckPayload>();
  payload->flush_id = flush_id;
  Send(writer, MsgType::kDiffReply, 0, 8, std::move(payload));
}

void ErcProtocol::HandleAck(uint64_t flush_id) {
  auto it = flushes_.find(flush_id);
  HLRC_CHECK(it != flushes_.end());
  if (--it->second == 0) {
    flushes_.erase(it);
    if (flushes_.empty() && !flush_waiters_.empty()) {
      std::vector<std::function<void()>> waiters = std::move(flush_waiters_);
      flush_waiters_.clear();
      for (auto& w : waiters) {
        w();
      }
    }
  }
}

void ErcProtocol::HandleProtocolMessage(Message msg) {
  switch (msg.type) {
    case MsgType::kDiffFlush: {
      auto* p = static_cast<ErcUpdatePayload*>(msg.payload.get());
      int64_t apply_bytes = 0;
      for (const Diff& d : p->diffs) {
        apply_bytes += d.DataBytes();
      }
      // Update application interrupts the receiving compute processor — the
      // core cost of an eager update protocol. The ack sent by HandleUpdate
      // inherits the apply span, so the writer's flush barrier chains
      // through it.
      Serve(msg, Route::kRequest, costs().DiffApplyCost(apply_bytes), BusyCat::kDiffApply,
            static_cast<int64_t>(p->flush_id),
            [this, writer = p->writer, flush_id = p->flush_id,
             diffs = std::move(p->diffs)]() mutable {
              HandleUpdate(writer, flush_id, std::move(diffs));
            });
      return;
    }
    case MsgType::kDiffReply: {
      auto* p = static_cast<ErcAckPayload*>(msg.payload.get());
      Serve(msg, Route::kReply, 0, BusyCat::kService, static_cast<int64_t>(p->flush_id),
            [this, flush_id = p->flush_id] { HandleAck(flush_id); });
      return;
    }
    default:
      HLRC_CHECK_MSG(false, "ERC node %d: unexpected message type %d", self(),
                     static_cast<int>(msg.type));
  }
}

int64_t ErcProtocol::SubclassMemoryBytes() const {
  // Only in-flight flush bookkeeping; nothing accumulates.
  return static_cast<int64_t>(flushes_.size()) * 16;
}

}  // namespace hlrc
