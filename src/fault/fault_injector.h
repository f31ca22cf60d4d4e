// Deterministic execution of a FaultPlan.
//
// The injector implements the network's FaultHook: the fabric consults it
// once per physical transmission (data frames, retransmissions and acks
// alike) and applies the returned decision. Determinism contract: decisions
// depend only on the plan, the seed and the (deterministic) sequence of
// OnTransmit calls — the injector draws the same four random values for every
// frame between two distinct nodes that no partition drops, whatever the
// probabilities, so changing one probability does not shift the stream that
// decides the other faults.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include "src/common/rng.h"
#include "src/fault/fault_plan.h"
#include "src/net/fault_hook.h"

namespace hlrc {

class FaultInjector : public FaultHook {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  FaultDecision OnTransmit(NodeId src, NodeId dst, MsgType, SimTime now,
                           bool retransmit) override;

  struct Counters {
    int64_t dropped = 0;
    int64_t corrupted = 0;
    int64_t duplicated = 0;
    int64_t delayed = 0;
    int64_t partition_dropped = 0;
  };
  const Counters& counters() const { return counters_; }
  const FaultPlan& plan() const { return plan_; }

  // True if a frame src->dst at `now` falls inside a partition window.
  bool Partitioned(NodeId src, NodeId dst, SimTime now) const;

 private:
  FaultPlan plan_;
  Rng rng_;
  Counters counters_;
};

}  // namespace hlrc

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
