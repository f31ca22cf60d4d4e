// Reliable-delivery layer over the lossy physical interconnect.
//
// The base Network model assumes a perfectly reliable NX/2-style fabric:
// exactly-once, in-order delivery per (src, dst) pair, which every protocol
// in this repo silently depends on (one lost diff-flush or lock-grant would
// deadlock or corrupt coherence). When fault injection makes the fabric
// lossy, this layer restores those guarantees end-to-end — per-destination
// sequence numbers, receiver-side dedup and reordering, and ack / timeout /
// retransmit with exponential backoff — so all protocols run unchanged over
// an unreliable network.
//
// Wire model: each Network::Send becomes a sequenced data frame. Every
// physical arrival of a data frame is acknowledged (acks are header-sized
// kAck messages, themselves subject to fault injection). The sender
// retransmits an unacked frame after `retry_timeout`, doubling the timeout
// by `retry_backoff` per attempt; exhausting `max_retries` is a fatal
// diagnostic (the run aborts instead of hanging). The receiver delivers
// frames to the protocol handler in sequence order per (src, dst) pair,
// holding out-of-order arrivals and dropping duplicates.
//
// Everything is driven by the deterministic engine: identical seeds and
// configurations produce bit-identical runs.
#ifndef SRC_NET_RELIABLE_CHANNEL_H_
#define SRC_NET_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/net/message.h"
#include "src/sim/engine.h"

namespace hlrc {

class Network;

struct ReliabilityConfig {
  bool enabled = false;
  // First retransmission fires this long after a transmission attempt. Must
  // comfortably exceed the worst-case request round trip (base latency +
  // transfer + endpoint queueing), or spurious retransmits waste bandwidth
  // (they are harmless for correctness: the receiver dedups).
  SimTime retry_timeout = Millis(10);
  // Timeout multiplier per successive attempt of the same frame.
  double retry_backoff = 2.0;
  // Retransmissions allowed per frame before the run aborts with a fatal
  // diagnostic. With backoff 2.0 the total patience is
  // retry_timeout * (2^max_retries - 1).
  int max_retries = 12;
  // Protocol bytes carried by an ack (sequence number); headers are added by
  // the network like any other message.
  int64_t ack_bytes = 8;
  // Ack piggybacking (on whenever NetworkConfig::coalesce is): instead of a
  // standalone ack frame per data arrival, owed ack seqs ride the next data
  // frame to that peer; a deadline timer flushes a standalone (possibly
  // multi-seq) ack when no data frame materializes within `ack_delay`. It
  // must exceed the typical request turnaround (receive interrupt 690 us +
  // service) so replies can carry the request's ack, while staying well
  // below `retry_timeout`, or deferring the ack would itself trigger
  // spurious retransmissions.
  SimTime ack_delay = Micros(1500);
};

// One physical transmission unit. Data frames reference the original Message
// through a shared pointer: retransmitted copies alias the same storage, and
// the receiver moves the payload out on first acceptance (later duplicates
// are identified by sequence number before the payload is touched).
struct WireFrame {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  MsgType type = MsgType::kLockRequest;
  int64_t update_bytes = 0;
  int64_t protocol_bytes = 0;
  uint64_t seq = 0;
  bool is_ack = false;
  // Ack seqs carried by this frame: the single seq of a standalone ack, or
  // any number of piggybacked seqs riding a data frame (acking the reverse
  // direction of this frame's pair).
  std::vector<uint64_t> ack_seqs;
  // Logical part types of a kBundle frame, recorded at submit time so
  // retransmission statistics never touch the (possibly already-consumed)
  // payload. Empty for single-message frames.
  std::vector<MsgType> part_types;
  // Wire span of the latest physical transmission that reached the receiving
  // NIC (span tracing; kNoSpan when tracing is off or the copy was lost).
  SpanId last_wire_span = kNoSpan;
  std::shared_ptr<Message> msg;  // Null for acks.
};

// Builds the data frame that carries `msg`: its header fields, the part
// types of a bundle, and the Message itself moved behind the frame. The
// plain fabric and the reliable channel both submit frames made here.
std::shared_ptr<WireFrame> MakeDataFrame(Message msg);

class ReliableChannel {
 public:
  ReliableChannel(Engine* engine, Network* network, ReliabilityConfig config, int nodes);

  // Sender entry point: sequences `msg` and starts (re)transmission attempts.
  void SubmitData(Message msg);

  // Receiver entry point: runs at the physical arrival time of `frame` on
  // `frame->dst`. Handles acks, dedup, reordering and in-order delivery.
  void OnArrival(const std::shared_ptr<WireFrame>& frame);

  // Frames still awaiting an ack (diagnostics / tests).
  int64_t UnackedCount() const;

  const ReliabilityConfig& config() const { return config_; }

 private:
  struct Outstanding {
    std::shared_ptr<WireFrame> frame;
    Engine::EventId timer = Engine::kInvalidEvent;
    int attempts = 0;  // Physical transmissions so far.
    SimTime first_submit = 0;  // When SubmitData sequenced the frame.
  };
  struct SenderPair {
    uint64_t next_seq = 0;
    std::map<uint64_t, Outstanding> unacked;
  };
  struct ReceiverPair {
    uint64_t next_expected = 0;
    std::map<uint64_t, Message> held;  // Out-of-order arrivals awaiting a gap fill.
  };
  // Acks node `a` owes node `b` (for data b->a), indexed PairIndex(a, b).
  // Only populated when piggybacking (NetworkConfig::coalesce).
  struct AckerPair {
    std::vector<uint64_t> pending;  // Seqs awaiting an ack, arrival order.
    Engine::EventId deadline = Engine::kInvalidEvent;
  };

  size_t PairIndex(NodeId src, NodeId dst) const {
    return static_cast<size_t>(src) * static_cast<size_t>(nodes_) + static_cast<size_t>(dst);
  }

  void TransmitAttempt(SenderPair& sp, uint64_t seq);
  void OnTimeout(NodeId src, NodeId dst, uint64_t seq);
  // Sends one standalone ack frame from `acker` to `peer` covering `seqs`.
  void SendAck(NodeId acker, NodeId peer, std::vector<uint64_t> seqs);

  // Retires every seq in `frame->ack_seqs` exactly once: the unacked-map
  // erase is the idempotence guard, so duplicate acks (standalone re-acks,
  // piggybacked copies riding a retransmission) neither double-count the
  // backlog nor record a second — or negative — retransmit-latency sample.
  void ProcessAcks(const WireFrame& frame);

  // Piggyback path: records the owed ack and arms the deadline timer.
  void QueueAck(const WireFrame& data_frame);
  // Deadline fallback: sends every still-owed seq as one standalone ack.
  void FlushAcks(NodeId acker, NodeId peer);

  Engine* engine_;
  Network* network_;
  ReliabilityConfig config_;
  int nodes_;
  bool piggyback_;  // The network's coalesce switch, read once.
  std::vector<SenderPair> senders_;     // Indexed by PairIndex(src, dst).
  std::vector<ReceiverPair> receivers_; // Indexed by PairIndex(src, dst).
  std::vector<AckerPair> ackers_;       // Indexed by PairIndex(acker, peer).
};

}  // namespace hlrc

#endif  // SRC_NET_RELIABLE_CHANNEL_H_
