// Interconnect model.
//
// Message cost = one-way base latency (covering NX/2 software send/receive
// overhead) + per-hop wire time + per-byte transfer time, with serialization
// at the sending and receiving NIC channels. Endpoint serialization is what
// produces the paper's "hot spots": simultaneous requests to one node queue
// behind each other.
//
// Two optional layers turn the clean fabric into a degradation-testing
// harness (docs/FAULTS.md):
//  * a FaultHook (src/net/fault_hook.h) consulted once per physical
//    transmission, which may drop, corrupt, duplicate or delay frames;
//  * a ReliableChannel (src/net/reliable_channel.h) restoring exactly-once
//    in-order delivery over the lossy fabric via seq numbers, acks and
//    timeout/retransmit, transparently to the protocols.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/coverage.h"
#include "src/common/types.h"
#include "src/metrics/histogram.h"
#include "src/net/fault_hook.h"
#include "src/net/message.h"
#include "src/net/reliable_channel.h"
#include "src/net/topology.h"
#include "src/sim/engine.h"
#include "src/tracing/span.h"

namespace hlrc {

class Metrics;

// Per-part length prefix charged inside a coalesced bundle frame.
constexpr int64_t kPartHeaderBytes = 4;

struct NetworkConfig {
  // One-way latency of a minimal message, including software overheads.
  SimTime base_latency = Micros(50);
  // Additional latency per mesh hop (wormhole routing => tiny).
  SimTime per_hop = Nanos(20);
  // Transfer time per byte. Calibrated so that an 8 KB page moves in ~353 us
  // (Table 3 reconstruction): 353000 ns / 8192 B ~= 43 ns/B.
  SimTime per_byte = Nanos(43);
  // Fixed header bytes added to every message (type, timestamps, addresses).
  int64_t header_bytes = 32;
  // The coalesced wire plane (--coalesce), one switch for three parts:
  // same-tick messages to one peer are packed into a single multi-part
  // kBundle frame (one header charge plus kPartHeaderBytes per part),
  // acks piggyback on reverse data frames when reliable delivery is on, and
  // HLRC/AURC homes answer concurrent fetches of a page from one snapshot.
  // Default off: the coalesced wire plane is an opt-in ablation, and the
  // golden summaries pin the uncoalesced traffic counts.
  bool coalesce = false;
};

// Per-node traffic counters (Table 5). Send-side counters count physical
// transmissions (retransmissions included); receive-side counters count
// physical arrivals, so under fault injection sent > received by exactly the
// frames lost in the network.
struct TrafficStats {
  int64_t msgs_sent = 0;
  int64_t msgs_received = 0;
  int64_t update_bytes_sent = 0;
  int64_t protocol_bytes_sent = 0;  // Includes headers.
  std::array<int64_t, static_cast<int>(MsgType::kCount)> msgs_by_type{};
  // Reliable-delivery / fault-injection counters (zero on a clean fabric).
  int64_t msgs_retransmitted = 0;      // Retransmissions issued by this node.
  int64_t msgs_dropped_in_net = 0;     // Frames from this node lost or corrupted.
  int64_t msgs_duplicated_dropped = 0; // Duplicate arrivals this node discarded.
  int64_t acks_sent = 0;               // Standalone ack frames this node sent.
  // Coalescing counters (zero unless NetworkConfig::coalesce). `msgs_sent`
  // counts physical frames (a bundle is one frame); these record how many of
  // those frames were bundles and how many logical messages rode inside
  // them, so frames = msgs_sent and logical messages = msgs_sent -
  // frames_coalesced + msgs_coalesced.
  int64_t frames_coalesced = 0;    // Bundle frames sent by this node.
  int64_t msgs_coalesced = 0;      // Logical messages packed into bundles.
  int64_t acks_piggybacked = 0;    // Ack seqs that rode data frames from this node.

  // Field-wise sum (Network::TotalStats, RunReport::Totals) and quotient
  // (RunReport::Average).
  TrafficStats& operator+=(const TrafficStats& o) {
    return ForEachPair(o, [](int64_t& a, int64_t b) { a += b; });
  }
  TrafficStats& operator/=(int64_t n) {
    return ForEachPair(*this, [n](int64_t& a, int64_t) { a /= n; });
  }

 private:
  // Calls f(mine, theirs) for every counter: the one field list both
  // operators share.
  template <typename F>
  TrafficStats& ForEachPair(const TrafficStats& o, F f) {
    f(msgs_sent, o.msgs_sent);
    f(msgs_received, o.msgs_received);
    f(update_bytes_sent, o.update_bytes_sent);
    f(protocol_bytes_sent, o.protocol_bytes_sent);
    for (size_t i = 0; i < msgs_by_type.size(); ++i) {
      f(msgs_by_type[i], o.msgs_by_type[i]);
    }
    f(msgs_retransmitted, o.msgs_retransmitted);
    f(msgs_dropped_in_net, o.msgs_dropped_in_net);
    f(msgs_duplicated_dropped, o.msgs_duplicated_dropped);
    f(acks_sent, o.acks_sent);
    f(frames_coalesced, o.frames_coalesced);
    f(msgs_coalesced, o.msgs_coalesced);
    f(acks_piggybacked, o.acks_piggybacked);
    return *this;
  }
};

class Network {
 public:
  using Handler = std::function<void(Message)>;

  Network(Engine* engine, int nodes, NetworkConfig config);
  ~Network();

  // Registers the message handler for `node`. Must be set before Send targets
  // that node.
  void SetHandler(NodeId node, Handler handler);

  // Sends `msg`; the destination handler runs when the message has fully
  // arrived (with reliable delivery: when it has been accepted in order).
  void Send(Message msg);

  // Installs a fault hook consulted on every physical transmission. Pass
  // nullptr to remove. The hook must outlive all Send activity.
  void SetFaultHook(FaultHook* hook) { fault_hook_ = hook; }

  // Installs a hook consulted on every physical transmission that returns an
  // extra head-arrival delay (>= 0), composing with fault-injection delays.
  // Receiving-NIC serialization still delivers frames to one destination in
  // global Transmit order, so per-pair FIFO (which the protocols rely on) is
  // preserved; jitter perturbs the relative order of deliveries at
  // *different* destinations, which is what the schedule-exploration harness
  // (src/check) uses to race protocol messages against each other. Pass
  // nullptr to remove.
  using DeliveryJitterHook = std::function<SimTime(NodeId src, NodeId dst, MsgType type)>;
  void SetDeliveryJitterHook(DeliveryJitterHook hook) { jitter_hook_ = std::move(hook); }

  // Installs a coverage observer (src/common/coverage.h). The network emits
  // kMsgEdge points — consecutive (prev MsgType, MsgType) pairs of accepted
  // deliveries at each destination — and kFault points for injected fault
  // decisions. Pure observation; pass nullptr to remove.
  void SetCoverageObserver(CoverageObserver* cov) { coverage_ = cov; }

  // Enables the reliable-delivery layer. Must be called before any Send.
  void EnableReliableDelivery(const ReliabilityConfig& config);

  // Records causal spans (src/tracing/span.h): queue / wire sub-spans per
  // transmission and retransmit sub-spans in the reliable channel, each
  // linked from the Message's causal parent. Pure observation; pass nullptr
  // to remove.
  void SetSpanTracer(SpanTracer* spans) { spans_ = spans; }

  // Pre-resolves per-node network instruments (wire latency per MsgType,
  // send-queue delay, bytes-in-flight, retransmit latency/backlog) from
  // `metrics` and registers the network's sampler series. Must precede any
  // Send; `metrics` must outlive the network's use.
  void AttachMetrics(Metrics* metrics);

  const TrafficStats& NodeStats(NodeId node) const { return stats_[node]; }
  TrafficStats TotalStats() const;
  const Mesh2D& mesh() const { return mesh_; }
  const NetworkConfig& config() const { return config_; }
  const ReliableChannel* reliable_channel() const { return channel_.get(); }

 private:
  friend class ReliableChannel;

  // Hands one message to the reliable channel or the plain fabric (the
  // pre-coalescing Send path).
  void SubmitOne(Message msg);

  // Coalescing send queue (config_.coalesce): appends to the per-(src, dst)
  // pending batch; the first message of a tick schedules a same-tick flush.
  void EnqueueCoalesced(Message msg);
  void FlushPending(NodeId src, NodeId dst);

  // Runs one frame through the physical model: NIC serialization, wire time,
  // fault decision. Schedules OnFrameArrival at the delivery time (unless the
  // frame is dropped in the network).
  void Transmit(const std::shared_ptr<WireFrame>& frame, bool retransmit);

  // Runs at the physical arrival time of `frame` on its destination NIC.
  void OnFrameArrival(const std::shared_ptr<WireFrame>& frame);

  // Hands an accepted message to the destination's protocol handler.
  void DeliverToHandler(Message msg);

  // Raw instrument pointers resolved once in AttachMetrics; empty when
  // metrics are off, so the hot-path cost is one vector-emptiness branch.
  struct NodeInstruments {
    std::array<Histogram*, static_cast<size_t>(MsgType::kCount)> wire_ns{};
    Histogram* queue_ns = nullptr;
    Histogram* retransmit_ack_ns = nullptr;
    int64_t* bytes_in_flight = nullptr;
    int64_t* retransmit_backlog = nullptr;
  };
  NodeInstruments* InstrumentsFor(NodeId node) {
    return instruments_.empty() ? nullptr : &instruments_[static_cast<size_t>(node)];
  }

  Engine* engine_;
  NetworkConfig config_;
  Mesh2D mesh_;
  std::vector<Handler> handlers_;
  std::vector<SimTime> out_free_;  // Send channel free time per node.
  std::vector<SimTime> in_free_;   // Receive channel free time per node.
  std::vector<TrafficStats> stats_;
  FaultHook* fault_hook_ = nullptr;
  DeliveryJitterHook jitter_hook_;
  CoverageObserver* coverage_ = nullptr;
  std::vector<uint32_t> last_delivered_type_;  // Per dst, for kMsgEdge edges.
  SpanTracer* spans_ = nullptr;
  std::vector<NodeInstruments> instruments_;
  std::unique_ptr<ReliableChannel> channel_;
  // Per-(src, dst) pending batch for the coalescing send queue; sized
  // nodes*nodes lazily on the first coalesced Send.
  struct PendingSend {
    std::vector<Message> msgs;
    bool flush_scheduled = false;
  };
  std::vector<PendingSend> pending_;
  bool sent_anything_ = false;
};

}  // namespace hlrc

#endif  // SRC_NET_NETWORK_H_
