#include "src/net/reliable_channel.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/net/network.h"

namespace hlrc {

std::shared_ptr<WireFrame> MakeDataFrame(Message msg) {
  auto frame = std::make_shared<WireFrame>();
  frame->src = msg.src;
  frame->dst = msg.dst;
  frame->type = msg.type;
  frame->update_bytes = msg.update_bytes;
  frame->protocol_bytes = msg.protocol_bytes;
  if (msg.type == MsgType::kBundle) {
    const auto* bundle = static_cast<const BundlePayload*>(msg.payload.get());
    frame->part_types.reserve(bundle->parts.size());
    for (const Message& part : bundle->parts) {
      frame->part_types.push_back(part.type);
    }
  }
  frame->msg = std::make_shared<Message>(std::move(msg));
  return frame;
}

ReliableChannel::ReliableChannel(Engine* engine, Network* network, ReliabilityConfig config,
                                 int nodes)
    : engine_(engine),
      network_(network),
      config_(config),
      nodes_(nodes),
      piggyback_(network->config().coalesce),
      senders_(static_cast<size_t>(nodes) * static_cast<size_t>(nodes)),
      receivers_(static_cast<size_t>(nodes) * static_cast<size_t>(nodes)),
      ackers_(piggyback_ ? static_cast<size_t>(nodes) * static_cast<size_t>(nodes) : 0) {}

void ReliableChannel::SubmitData(Message msg) {
  std::shared_ptr<WireFrame> frame = MakeDataFrame(std::move(msg));
  SenderPair& sp = senders_[PairIndex(frame->src, frame->dst)];
  frame->seq = sp.next_seq++;
  if (piggyback_) {
    // Any acks this sender owes the destination ride along: the seqs travel
    // in the data frame's header extension and stay attached across
    // retransmissions (ProcessAcks is idempotent on the receiver).
    AckerPair& ap = ackers_[PairIndex(frame->src, frame->dst)];
    if (!ap.pending.empty()) {
      frame->ack_seqs = std::move(ap.pending);
      ap.pending.clear();
      frame->protocol_bytes +=
          kAckBytes * static_cast<int64_t>(frame->ack_seqs.size());
      network_->stats_[frame->src].acks_piggybacked +=
          static_cast<int64_t>(frame->ack_seqs.size());
      if (ap.deadline != Engine::kInvalidEvent) {
        engine_->Cancel(ap.deadline);
        ap.deadline = Engine::kInvalidEvent;
      }
    }
  }
  Outstanding& o = sp.unacked[frame->seq];
  o.frame = frame;
  o.first_submit = engine_->Now();
  if (Network::NodeInstruments* ins = network_->InstrumentsFor(frame->src)) {
    ++*ins->retransmit_backlog;
  }
  TransmitAttempt(sp, frame->seq);
}

void ReliableChannel::TransmitAttempt(SenderPair& sp, uint64_t seq) {
  auto it = sp.unacked.find(seq);
  HLRC_CHECK(it != sp.unacked.end());
  Outstanding& o = it->second;
  ++o.attempts;
  if (o.attempts > 1 && network_->spans_ != nullptr && o.frame->msg != nullptr &&
      o.frame->msg->span != kNoSpan) {
    // A retransmission means the original cause has been blocked since the
    // first submit: record that stretch so the critical path can attribute
    // it to the retry machinery. The frame keeps its original causal parent
    // (satellite: a dropped-then-retransmitted request must still produce one
    // connected span DAG).
    const SpanId r = network_->spans_->Emit(
        SpanKind::kRetransmit, o.frame->src, o.first_submit, engine_->Now(),
        kNoSpan, static_cast<int64_t>(o.frame->type), o.attempts - 1);
    network_->spans_->AddLink(r, o.frame->msg->span);
  }
  network_->Transmit(o.frame, /*retransmit=*/o.attempts > 1);
  // Exponential backoff: pure integer/double arithmetic on virtual time, so
  // identical runs schedule identical timers.
  const SimTime timeout = static_cast<SimTime>(
      static_cast<double>(config_.retry_timeout) * std::pow(kRetryBackoff, o.attempts - 1));
  o.timer = engine_->Schedule(
      timeout, [this, src = o.frame->src, dst = o.frame->dst, seq] { OnTimeout(src, dst, seq); });
}

void ReliableChannel::OnTimeout(NodeId src, NodeId dst, uint64_t seq) {
  SenderPair& sp = senders_[PairIndex(src, dst)];
  auto it = sp.unacked.find(seq);
  if (it == sp.unacked.end()) {
    return;  // Acked in the meantime (the ack also cancels the timer; belt and braces).
  }
  Outstanding& o = it->second;
  HLRC_CHECK_MSG(
      o.attempts - 1 < config_.max_retries,
      "reliable channel: retry budget exhausted for %s %d->%d seq=%llu after %d attempts "
      "(retry-timeout=%lld ns, backoff=%.2f, max-retries=%d): the destination is "
      "unreachable (partition?) or the retry budget is too small for this loss rate",
      MsgTypeName(o.frame->type), src, dst, static_cast<unsigned long long>(seq), o.attempts,
      static_cast<long long>(config_.retry_timeout), kRetryBackoff,
      config_.max_retries);
  TransmitAttempt(sp, seq);
}

void ReliableChannel::SendAck(NodeId acker, NodeId peer, std::vector<uint64_t> seqs) {
  auto ack = std::make_shared<WireFrame>();
  ack->src = acker;
  ack->dst = peer;
  ack->type = MsgType::kAck;
  ack->is_ack = true;
  ack->protocol_bytes = kAckBytes * static_cast<int64_t>(seqs.size());
  ack->ack_seqs = std::move(seqs);
  ++network_->stats_[acker].acks_sent;
  network_->Transmit(ack, /*retransmit=*/false);
}

void ReliableChannel::ProcessAcks(const WireFrame& frame) {
  if (frame.ack_seqs.empty()) {
    return;
  }
  // The acks travel receiver -> sender, so the acked pair is the reverse of
  // the carrying frame's direction (true for standalone acks and for seqs
  // piggybacked on a data frame alike).
  SenderPair& sp = senders_[PairIndex(frame.dst, frame.src)];
  for (const uint64_t seq : frame.ack_seqs) {
    auto it = sp.unacked.find(seq);
    if (it == sp.unacked.end()) {
      // Already retired: a duplicate ack (re-ack after a retransmission, or
      // a piggybacked copy riding a retransmitted data frame) must be a
      // no-op — in particular it must not decrement the backlog again or
      // record a second retransmit-latency sample.
      continue;
    }
    engine_->Cancel(it->second.timer);
    if (Network::NodeInstruments* ins = network_->InstrumentsFor(frame.dst)) {
      --*ins->retransmit_backlog;
      if (it->second.attempts > 1) {
        // Only frames that actually needed a retransmission: the tail the
        // retry machinery adds on top of the clean round trip. first_submit
        // is a past simulated instant, so the sample is never negative.
        ins->retransmit_ack_ns->Record(engine_->Now() - it->second.first_submit);
      }
    }
    sp.unacked.erase(it);
  }
}

void ReliableChannel::QueueAck(const WireFrame& data_frame) {
  AckerPair& ap = ackers_[PairIndex(data_frame.dst, data_frame.src)];
  for (const uint64_t seq : ap.pending) {
    if (seq == data_frame.seq) {
      return;  // A re-arrival while its ack is still owed: one ack suffices.
    }
  }
  ap.pending.push_back(data_frame.seq);
  if (ap.deadline == Engine::kInvalidEvent) {
    ap.deadline = engine_->Schedule(
        kAckDelay, [this, acker = data_frame.dst, peer = data_frame.src] {
          FlushAcks(acker, peer);
        });
  }
}

void ReliableChannel::FlushAcks(NodeId acker, NodeId peer) {
  AckerPair& ap = ackers_[PairIndex(acker, peer)];
  ap.deadline = Engine::kInvalidEvent;
  if (ap.pending.empty()) {
    return;  // Everything piggybacked in the meantime.
  }
  SendAck(acker, peer, std::exchange(ap.pending, {}));
}

void ReliableChannel::OnArrival(const std::shared_ptr<WireFrame>& frame) {
  ProcessAcks(*frame);
  if (frame->is_ack) {
    return;
  }

  // Every physical data arrival is (re-)acked, duplicates included: a
  // duplicate usually means the original ack was lost and the sender is still
  // retransmitting. With piggybacking the ack is merely deferred — onto the
  // next data frame to the sender, or the deadline's standalone ack.
  if (piggyback_) {
    QueueAck(*frame);
  } else {
    SendAck(frame->dst, frame->src, {frame->seq});
  }

  ReceiverPair& rp = receivers_[PairIndex(frame->src, frame->dst)];
  if (frame->seq < rp.next_expected || rp.held.count(frame->seq) != 0) {
    ++network_->stats_[frame->dst].msgs_duplicated_dropped;
    return;
  }

  // First acceptance of this sequence number: take the payload out of the
  // shared frame (later duplicates are rejected by seq before touching it).
  Message msg = std::move(*frame->msg);
  if (frame->last_wire_span != kNoSpan) {
    // Chain the receiver's handler span from the wire span of the physical
    // copy that actually made it (retransmissions alias the same Message).
    msg.span = frame->last_wire_span;
  }
  if (frame->seq != rp.next_expected) {
    rp.held.emplace(frame->seq, std::move(msg));  // Out of order: hold for the gap.
    return;
  }
  ++rp.next_expected;
  network_->DeliverToHandler(std::move(msg));
  // A gap fill releases every consecutively-held successor, in order.
  for (auto hit = rp.held.find(rp.next_expected); hit != rp.held.end();
       hit = rp.held.find(rp.next_expected)) {
    Message next = std::move(hit->second);
    rp.held.erase(hit);
    ++rp.next_expected;
    network_->DeliverToHandler(std::move(next));
  }
}

int64_t ReliableChannel::UnackedCount() const {
  int64_t n = 0;
  for (const SenderPair& sp : senders_) {
    n += static_cast<int64_t>(sp.unacked.size());
  }
  return n;
}

}  // namespace hlrc
