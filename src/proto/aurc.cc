#include "src/proto/aurc.h"

#include <utility>

namespace hlrc {

int64_t AurcProtocol::ProtocolMemoryBytes() const {
  return known_interval_bytes_ + SubclassMemoryBytes();
}

void AurcProtocol::ShipDiff(PageId page, uint32_t interval, Diff diff,
                            CloseActions* /*actions*/) {
  // The automatic-update hardware streamed these words out as they were
  // stored: no diff-creation cost, no diffs_created accounting (Table 4's
  // "AURC uses no diff operations"), but write-through amplification on the
  // wire, sent at close. The flush carries the writer's interval so the
  // home's flush timestamps stay exact.
  const int64_t wire_bytes = static_cast<int64_t>(
      static_cast<double>(diff.DataBytes()) * kAurcWriteAmplification);
  // No diff operation happened, but the amplified update bytes are still
  // attributable page traffic for the heat profile.
  MetricDiffCreated(page, wire_bytes);
  SpanCause sc(this, interval_close_span());
  SendDiffFlush(HomeOf(page), self(), page, interval, std::move(diff), wire_bytes);
}

void AurcProtocol::HandleProtocolMessage(Message msg) {
  if (msg.type == MsgType::kDiffFlush) {
    // Automatic updates land in home memory without interrupting either
    // processor: apply at delivery, zero occupancy. The zero-duration span
    // keeps the causal chain connected (e.g. a home-wait released by this
    // flush still traces back to the writer's interval close).
    auto* p = static_cast<DiffFlushPayload*>(msg.payload.get());
    SpanCause sc(this, SpanEmit(SpanKind::kDiffApply, engine()->Now(), msg.span, p->page));
    HandleDiffFlush(p->writer, p->page, p->interval, p->diff);
    return;
  }
  HlrcProtocol::HandleProtocolMessage(std::move(msg));
}

}  // namespace hlrc
