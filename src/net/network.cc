#include "src/net/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/metrics/metrics.h"

namespace hlrc {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kLockRequest:
      return "lock-request";
    case MsgType::kLockForward:
      return "lock-forward";
    case MsgType::kLockGrant:
      return "lock-grant";
    case MsgType::kBarrierEnter:
      return "barrier-enter";
    case MsgType::kBarrierRelease:
      return "barrier-release";
    case MsgType::kDiffFlush:
      return "diff-flush";
    case MsgType::kDiffRequest:
      return "diff-request";
    case MsgType::kDiffReply:
      return "diff-reply";
    case MsgType::kPageRequest:
      return "page-request";
    case MsgType::kPageReply:
      return "page-reply";
    case MsgType::kGcRequest:
      return "gc-request";
    case MsgType::kGcInfo:
      return "gc-info";
    case MsgType::kGcValidate:
      return "gc-validate";
    case MsgType::kGcDone:
      return "gc-done";
    case MsgType::kHomeTransfer:
      return "home-transfer";
    case MsgType::kAck:
      return "ack";
    case MsgType::kBundle:
      return "bundle";
    case MsgType::kCount:
      break;
  }
  return "?";
}

Network::Network(Engine* engine, int nodes, NetworkConfig config)
    : engine_(engine),
      config_(config),
      mesh_(nodes),
      handlers_(nodes),
      out_free_(nodes, 0),
      in_free_(nodes, 0),
      stats_(nodes),
      last_delivered_type_(nodes, static_cast<uint32_t>(MsgType::kCount)) {
  if (config_.coalesce) {
    pending_.resize(static_cast<size_t>(nodes) * static_cast<size_t>(nodes));
  }
}

Network::~Network() = default;

void Network::SetHandler(NodeId node, Handler handler) {
  HLRC_CHECK(node >= 0 && node < static_cast<NodeId>(handlers_.size()));
  handlers_[node] = std::move(handler);
}

void Network::EnableReliableDelivery(const ReliabilityConfig& config) {
  HLRC_CHECK_MSG(!sent_anything_, "EnableReliableDelivery must precede any Send");
  HLRC_CHECK(config.enabled);
  HLRC_CHECK(config.retry_timeout > 0);
  HLRC_CHECK(config.max_retries >= 0);
  if (config_.coalesce) {
    HLRC_CHECK_MSG(kAckDelay < config.retry_timeout,
                   "piggyback kAckDelay must be below retry_timeout, or deferred acks "
                   "would trigger spurious retransmissions");
  }
  channel_ = std::make_unique<ReliableChannel>(engine_, this, config,
                                               static_cast<int>(handlers_.size()));
}

void Network::AttachMetrics(Metrics* metrics) {
  HLRC_CHECK_MSG(!sent_anything_, "AttachMetrics must precede any Send");
  HLRC_CHECK(metrics != nullptr);
  MetricsRegistry& reg = metrics->registry();
  const int nodes = static_cast<int>(handlers_.size());
  instruments_.assign(static_cast<size_t>(nodes), NodeInstruments{});
  for (NodeId n = 0; n < nodes; ++n) {
    NodeInstruments& ins = instruments_[static_cast<size_t>(n)];
    for (int t = 0; t < static_cast<int>(MsgType::kCount); ++t) {
      ins.wire_ns[static_cast<size_t>(t)] = reg.Histo(
          std::string("net.wire_ns.") + MsgTypeName(static_cast<MsgType>(t)), n);
    }
    ins.queue_ns = reg.Histo("net.queue_ns", n);
    ins.retransmit_ack_ns = reg.Histo("net.retransmit_ack_ns", n);
    ins.bytes_in_flight = reg.Counter("net.bytes_in_flight", n);
    ins.retransmit_backlog = reg.Counter("net.retransmit_backlog", n);
    metrics->sampler().AddSeries(
        "bytes_in_flight", n,
        [c = ins.bytes_in_flight] { return static_cast<double>(*c); });
    metrics->sampler().AddSeries(
        "retransmit_backlog", n,
        [c = ins.retransmit_backlog] { return static_cast<double>(*c); });
    metrics->sampler().AddSeries(
        "msgs_sent", n,
        [s = &stats_[static_cast<size_t>(n)]] { return static_cast<double>(s->msgs_sent); });
  }
}

void Network::Send(Message msg) {
  HLRC_CHECK(msg.src >= 0 && msg.src < static_cast<NodeId>(handlers_.size()));
  HLRC_CHECK(msg.dst >= 0 && msg.dst < static_cast<NodeId>(handlers_.size()));
  HLRC_CHECK_MSG(static_cast<bool>(handlers_[msg.dst]), "no handler on node %d", msg.dst);
  sent_anything_ = true;

  if (config_.coalesce) {
    EnqueueCoalesced(std::move(msg));
    return;
  }
  SubmitOne(std::move(msg));
}

void Network::SubmitOne(Message msg) {
  if (channel_ != nullptr) {
    channel_->SubmitData(std::move(msg));
    return;
  }
  Transmit(MakeDataFrame(std::move(msg)), /*retransmit=*/false);
}

void Network::EnqueueCoalesced(Message msg) {
  const size_t idx = static_cast<size_t>(msg.src) * handlers_.size() +
                     static_cast<size_t>(msg.dst);
  PendingSend& p = pending_[idx];
  if (!p.flush_scheduled) {
    // A same-tick flush event: every Send to this pair before the engine
    // reaches it joins the batch, so the queue adds no simulated latency —
    // it only merges frames that would have departed back to back anyway.
    p.flush_scheduled = true;
    engine_->ScheduleAt(engine_->Now(),
                        [this, src = msg.src, dst = msg.dst] { FlushPending(src, dst); });
  }
  p.msgs.push_back(std::move(msg));
}

void Network::FlushPending(NodeId src, NodeId dst) {
  PendingSend& p = pending_[static_cast<size_t>(src) * handlers_.size() +
                            static_cast<size_t>(dst)];
  p.flush_scheduled = false;
  std::vector<Message> batch = std::move(p.msgs);
  p.msgs.clear();
  if (batch.empty()) {
    return;
  }
  if (batch.size() == 1) {
    SubmitOne(std::move(batch[0]));
    return;
  }
  Message bundle;
  bundle.src = src;
  bundle.dst = dst;
  bundle.type = MsgType::kBundle;
  auto payload = std::make_unique<BundlePayload>();
  payload->parts.reserve(batch.size());
  const SimTime now = engine_->Now();
  for (Message& part : batch) {
    bundle.update_bytes += part.update_bytes;
    bundle.protocol_bytes += part.protocol_bytes + kPartHeaderBytes;
    if (spans_ != nullptr && part.span != kNoSpan) {
      // The hold is zero simulated time (the flush runs in the same tick),
      // but the span keeps each part's causal chain connected through the
      // bundle hop: cause -> coalesce-hold -> receiver service.
      const SpanId h = spans_->Emit(SpanKind::kCoalesceHold, src, now, now, kNoSpan,
                                    static_cast<int64_t>(part.type));
      spans_->AddLink(h, part.span);
      part.span = h;
    }
    payload->parts.push_back(std::move(part));
  }
  TrafficStats& s = stats_[src];
  ++s.frames_coalesced;
  s.msgs_coalesced += static_cast<int64_t>(payload->parts.size());
  bundle.payload = std::move(payload);
  SubmitOne(std::move(bundle));
}

void Network::Transmit(const std::shared_ptr<WireFrame>& frame, bool retransmit) {
  const int64_t bytes = config_.header_bytes + frame->update_bytes + frame->protocol_bytes;
  const SimTime now = engine_->Now();

  TrafficStats& s = stats_[frame->src];
  ++s.msgs_sent;
  s.update_bytes_sent += frame->update_bytes;
  s.protocol_bytes_sent += frame->protocol_bytes + config_.header_bytes;
  ++s.msgs_by_type[static_cast<int>(frame->type)];
  // A bundle frame also counts its logical parts under their own types (from
  // the submit-time type list — the payload may already be consumed when a
  // late retransmission of an acked-but-lost frame passes through here), so
  // per-type logical counts are invariant under coalescing.
  for (const MsgType t : frame->part_types) {
    ++s.msgs_by_type[static_cast<int>(t)];
  }
  if (retransmit) {
    ++s.msgs_retransmitted;
  }

  FaultDecision fault;
  if (fault_hook_ != nullptr) {
    fault = fault_hook_->OnTransmit(frame->src, frame->dst, frame->type, now, retransmit);
  }

  const SimTime xfer = bytes * config_.per_byte;

  // Sending NIC channel serialization: the sender pays for the transmission
  // whether or not the network later loses the frame.
  const SimTime departure = std::max(now, out_free_[frame->src]);
  out_free_[frame->src] = departure + xfer;
  if (NodeInstruments* ins = InstrumentsFor(frame->src)) {
    ins->queue_ns->Record(departure - now);
  }

  // Span tracing: the frame's causal parent rides on the Message (acks carry
  // none). Emitted spans never feed back into the simulation.
  const SpanId cause =
      (spans_ != nullptr && frame->msg != nullptr) ? frame->msg->span : kNoSpan;
  SpanId queue_span = kNoSpan;
  if (cause != kNoSpan && departure > now) {
    queue_span = spans_->Emit(SpanKind::kQueue, frame->src, now, departure,
                              kNoSpan, static_cast<int64_t>(frame->type));
    spans_->AddLink(queue_span, cause);
  }

  // Wire time: latency + hops. With wormhole routing the message is pipelined,
  // so the head arrives after the latency and the tail `xfer` later.
  SimTime head_arrival = departure + config_.base_latency +
                         mesh_.Hops(frame->src, frame->dst) * config_.per_hop +
                         fault.extra_delay;
  if (jitter_hook_ != nullptr) {
    const SimTime jitter = jitter_hook_(frame->src, frame->dst, frame->type);
    HLRC_CHECK(jitter >= 0);
    head_arrival += jitter;
  }

  if (fault.drop) {
    // Lost in the fabric: never reaches the receiving NIC.
    if (coverage_ != nullptr) {
      coverage_->Cover(CoverageObserver::Domain::kFault,
                       static_cast<uint64_t>(frame->type), 0);
    }
    ++s.msgs_dropped_in_net;
    return;
  }

  // Receiving NIC channel serialization: the message is fully delivered when
  // its bytes have drained into the destination.
  const SimTime delivered = std::max(head_arrival, in_free_[frame->dst]) + xfer;
  in_free_[frame->dst] = delivered;

  if (fault.corrupt) {
    // The bytes occupied the receiving NIC but fail their checksum there and
    // are discarded: equivalent to a loss, just later and more expensive.
    if (coverage_ != nullptr) {
      coverage_->Cover(CoverageObserver::Domain::kFault,
                       static_cast<uint64_t>(frame->type), 1);
    }
    ++s.msgs_dropped_in_net;
    return;
  }

  if (!instruments_.empty()) {
    // Wire latency lands on the destination's histogram: it is the time the
    // receiver waited for bytes already committed to the fabric.
    instruments_[static_cast<size_t>(frame->dst)]
        .wire_ns[static_cast<size_t>(frame->type)]
        ->Record(delivered - departure);
    *instruments_[static_cast<size_t>(frame->src)].bytes_in_flight += bytes;
  }
  if (cause != kNoSpan) {
    const SpanId w = spans_->Emit(SpanKind::kWire, frame->dst, departure,
                                  delivered, kNoSpan,
                                  static_cast<int64_t>(frame->type));
    spans_->AddLink(w, queue_span != kNoSpan ? queue_span : cause);
    frame->last_wire_span = w;
  }
  engine_->ScheduleAt(delivered, [this, frame] { OnFrameArrival(frame); });

  if (coverage_ != nullptr && fault.extra_delay > 0) {
    coverage_->Cover(CoverageObserver::Domain::kFault,
                     static_cast<uint64_t>(frame->type), 2);
  }
  if (fault.duplicate && channel_ != nullptr) {
    if (coverage_ != nullptr) {
      coverage_->Cover(CoverageObserver::Domain::kFault,
                       static_cast<uint64_t>(frame->type), 3);
    }
    // A spurious second copy drains the receiving NIC right after the first.
    // Only meaningful with reliable delivery: the channel dedups it; without
    // a dedup layer a duplicate would hand the protocol the same (consumed)
    // payload twice, so the plain fabric ignores the flag.
    const SimTime delivered2 = delivered + xfer;
    in_free_[frame->dst] = delivered2;
    if (NodeInstruments* ins = InstrumentsFor(frame->src)) {
      // The duplicate copy is in flight too; each arrival decrements once.
      *ins->bytes_in_flight += bytes;
    }
    engine_->ScheduleAt(delivered2, [this, frame] { OnFrameArrival(frame); });
  }
}

void Network::OnFrameArrival(const std::shared_ptr<WireFrame>& frame) {
  ++stats_[frame->dst].msgs_received;
  if (NodeInstruments* ins = InstrumentsFor(frame->src)) {
    *ins->bytes_in_flight -=
        config_.header_bytes + frame->update_bytes + frame->protocol_bytes;
  }
  if (channel_ != nullptr) {
    channel_->OnArrival(frame);
    return;
  }
  HLRC_CHECK(!frame->is_ack);
  if (frame->last_wire_span != kNoSpan) {
    // The receiver's handler span chains from the wire span, not the sender's
    // original cause, so the hop shows up in the DAG.
    frame->msg->span = frame->last_wire_span;
  }
  DeliverToHandler(std::move(*frame->msg));
}

void Network::DeliverToHandler(Message msg) {
  if (msg.type == MsgType::kBundle) {
    // Unpack in send order; each part re-enters with its own type, so
    // coverage edges and protocol handlers never observe kBundle.
    auto* bundle = static_cast<BundlePayload*>(msg.payload.get());
    for (Message& part : bundle->parts) {
      DeliverToHandler(std::move(part));
    }
    return;
  }
  if (coverage_ != nullptr) {
    // Delivery edges: which message type followed which at this destination.
    // Node ids stay out of the point itself so the edge space measures
    // protocol behavior rather than topology.
    coverage_->Cover(CoverageObserver::Domain::kMsgEdge,
                     last_delivered_type_[msg.dst],
                     static_cast<uint64_t>(msg.type));
    last_delivered_type_[msg.dst] = static_cast<uint32_t>(msg.type);
  }
  Handler& handler = handlers_[msg.dst];
  handler(std::move(msg));
}

TrafficStats Network::TotalStats() const {
  TrafficStats total;
  for (const TrafficStats& s : stats_) {
    total += s;
  }
  return total;
}

}  // namespace hlrc
