// Automatic Update Release Consistency (extension beyond the paper's four
// protocols; the paper's §2.2 background and reference [15, 16]).
//
// AURC is the protocol HLRC was derived from: the SHRIMP network interface
// snoops writes off the memory bus and propagates them to the home copy with
// zero software overhead. This simulation keeps HLRC's home/flush-timestamp
// machinery — interval close included — but models the hardware: write
// capture (twins) and update detection are free, updates reach the home
// without occupying either processor, and the write-through traffic is
// amplified (every store crosses the network; we observe only the final
// dirty words and scale by kAurcWriteAmplification, src/proto/options.h). The
// only overridden steps are how a diff leaves the writer (ShipDiff) and how
// it lands at the home (HandleProtocolMessage). Comparing AURC with HLRC
// quantifies the paper's central tradeoff: HLRC pays diffing software
// overhead to avoid AURC's hardware and bandwidth (paper §2.3).
#ifndef SRC_PROTO_AURC_H_
#define SRC_PROTO_AURC_H_

#include "src/proto/hlrc.h"

namespace hlrc {

class AurcProtocol : public HlrcProtocol {
 public:
  explicit AurcProtocol(const Env& env) : HlrcProtocol(env) {}

  // Twins model the automatic-update hardware state, not software memory:
  // exclude them from the protocol memory accounting.
  int64_t ProtocolMemoryBytes() const override;

 protected:
  void ShipDiff(PageId page, uint32_t interval, Diff diff, CloseActions* actions) override;
  void HandleProtocolMessage(Message msg) override;
  SimTime WriteCaptureCost() const override { return 0; }
};

}  // namespace hlrc

#endif  // SRC_PROTO_AURC_H_
