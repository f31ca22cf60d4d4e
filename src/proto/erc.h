// Eager release consistency (extension beyond the paper's four protocols).
//
// The paper's introduction contrasts LRC with plain release consistency,
// which "propagates updates on release". This is that baseline, in the
// Munin write-shared style: at every interval end the writer broadcasts its
// diffs to all other copies and the synchronization operation (lock grant,
// barrier enter) blocks until every receiver acknowledges. Pages are
// therefore *always valid everywhere*: no write notices, no invalidations,
// no page faults on readers, no garbage collection — in exchange for
// O(nodes) update messages per dirty page per interval and a release that
// stalls on the slowest receiver. The comparison against LRC/HLRC shows
// exactly why lazy protocols won (run bench/ablation_protocol_family).
#ifndef SRC_PROTO_ERC_H_
#define SRC_PROTO_ERC_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/proto/protocol.h"

namespace hlrc {

class ErcProtocol : public ProtocolNode {
 public:
  explicit ErcProtocol(const Env& env) : ProtocolNode(env) {}

 protected:
  void OnIntervalClosed(IntervalRecord* rec, CloseActions* actions) override;
  bool OnWriteNotice(const IntervalRecord& rec, PageId page) override;
  Task<void> ResolveFault(PageId page, bool write) override;
  void HandleProtocolMessage(Message msg) override;
  int64_t SubclassMemoryBytes() const override;

  void FlushBarrier(std::function<void()> done) override;

 private:
  void HandleUpdate(NodeId writer, uint64_t flush_id, std::vector<Diff> diffs);
  void HandleAck(uint64_t flush_id);

  uint64_t next_flush_id_ = 1;
  // flush id -> acks still missing.
  std::unordered_map<uint64_t, int> flushes_;
  // Continuations gated on all flushes being acknowledged.
  std::vector<std::function<void()>> flush_waiters_;
};

// Payloads.

struct ErcUpdatePayload : Payload {
  NodeId writer;
  uint64_t flush_id;
  std::vector<Diff> diffs;
};

struct ErcAckPayload : Payload {
  uint64_t flush_id;
};

}  // namespace hlrc

#endif  // SRC_PROTO_ERC_H_
