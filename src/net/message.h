// Message definitions for the simulated interconnect.
//
// Payloads are protocol-defined: the network layer treats them as opaque data
// with a byte size. `update_bytes` vs `protocol_bytes` mirrors the paper's
// Table 5 traffic split (diff/page data vs write notices, requests and
// synchronization messages).
#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/tracing/span.h"

namespace hlrc {

// Message types, used for statistics and debugging. The receiving protocol
// dispatches on the payload type, not on this enum.
enum class MsgType : int {
  kLockRequest = 0,
  kLockForward = 1,
  kLockGrant = 2,
  kBarrierEnter = 3,
  kBarrierRelease = 4,
  kDiffFlush = 5,    // HLRC: diff pushed to its home.
  kDiffRequest = 6,  // LRC: fetch diffs from a writer.
  kDiffReply = 7,
  kPageRequest = 8,
  kPageReply = 9,
  kGcRequest = 10,   // Manager -> all: start GC inventory.
  kGcInfo = 11,      // Node -> manager: page/diff inventory.
  kGcValidate = 12,  // Manager -> node: pages this node must validate.
  kGcDone = 13,      // Node -> manager: validation finished.
  kHomeTransfer = 14,  // Old home -> new home: page master + flush state.
  kAck = 15,           // Reliable-delivery acknowledgement (src/net/reliable_channel.h).
  kBundle = 16,        // Multi-part coalesced frame (NetworkConfig::coalesce).
  kCount = 17,
};

const char* MsgTypeName(MsgType t);

// Base class for protocol payloads.
//
// Ownership: a Message owns its payload uniquely, but the reliable channel
// may alias the whole Message across retransmissions, and interval-carrying
// payloads (grants, barrier releases) hold shared handles to immutable
// IntervalRecords that fan out to many receivers. Anything reachable from a
// payload that is shared this way must never be mutated after it is sent.
struct Payload {
  virtual ~Payload() = default;
};

struct Message {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  MsgType type = MsgType::kLockRequest;
  // Bytes of update data carried (diff contents, page contents).
  int64_t update_bytes = 0;
  // Bytes of protocol metadata carried (write notices, timestamps, request
  // descriptors). The fixed per-message header is added by the network.
  int64_t protocol_bytes = 0;
  // Causal parent for span tracing (src/tracing/span.h): the span that caused
  // this message. Stamped by the sender, rewritten to the wire span in
  // transit so the receiver's handler span chains through it. kNoSpan when
  // tracing is off. Pure observation — never read by protocol logic.
  SpanId span = kNoSpan;
  std::unique_ptr<Payload> payload;
};

// Multi-part frame built by the coalescing send queue (NetworkConfig::
// coalesce): same-tick messages from one source to one destination ride a
// single kBundle frame, paying one header charge plus a small length prefix
// per part. The network unpacks the bundle at delivery, so protocol handlers
// only ever see the constituent messages.
struct BundlePayload : Payload {
  std::vector<Message> parts;
};

}  // namespace hlrc

#endif  // SRC_NET_MESSAGE_H_
