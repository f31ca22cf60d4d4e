#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/common/check.h"

namespace hlrc {

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {
  HLRC_CHECK(plan_.drop_prob >= 0 && plan_.drop_prob <= 1);
  HLRC_CHECK(plan_.corrupt_prob >= 0 && plan_.corrupt_prob <= 1);
  HLRC_CHECK(plan_.dup_prob >= 0 && plan_.dup_prob <= 1);
  HLRC_CHECK(plan_.delay_prob >= 0 && plan_.delay_prob <= 1);
  HLRC_CHECK(plan_.delay_min >= 0 && plan_.delay_min <= plan_.delay_max);
  for (const PartitionWindow& w : plan_.partitions) {
    HLRC_CHECK_MSG(!w.group_a.empty(), "partition window needs a non-empty group_a");
    HLRC_CHECK(w.start <= w.end);
  }
}

namespace {

bool Contains(const std::vector<NodeId>& group, NodeId n) {
  return std::find(group.begin(), group.end(), n) != group.end();
}

}  // namespace

bool FaultInjector::Partitioned(NodeId src, NodeId dst, SimTime now) const {
  for (const PartitionWindow& w : plan_.partitions) {
    if (now < w.start || now >= w.end) {
      continue;
    }
    const bool src_a = Contains(w.group_a, src);
    const bool dst_a = Contains(w.group_a, dst);
    if (w.group_b.empty()) {
      // Clean split: group_a vs everyone else.
      if (src_a != dst_a) {
        return true;
      }
      continue;
    }
    const bool src_b = Contains(w.group_b, src);
    const bool dst_b = Contains(w.group_b, dst);
    if ((src_a && dst_b) || (src_b && dst_a)) {
      return true;
    }
  }
  return false;
}

FaultDecision FaultInjector::OnTransmit(NodeId src, NodeId dst, MsgType, SimTime now,
                                        bool /*retransmit*/) {
  FaultDecision d;

  // Scheduled faults first: deterministic, no randomness consumed.
  if (Partitioned(src, dst, now)) {
    d.drop = true;
    ++counters_.partition_dropped;
    ++counters_.dropped;
    return d;
  }

  // Loopback frames never enter the fabric; probabilistic faults skip them.
  if (src == dst) {
    return d;
  }

  // One draw per stage, always all four, so the random stream stays aligned
  // across plan variations (e.g. raising drop_prob does not reshuffle which
  // frames get duplicated).
  const double u_drop = rng_.NextDouble();
  const double u_corrupt = rng_.NextDouble();
  const double u_dup = rng_.NextDouble();
  const double u_delay = rng_.NextDouble();

  if (u_drop < plan_.drop_prob) {
    d.drop = true;
    ++counters_.dropped;
    return d;
  }
  if (u_corrupt < plan_.corrupt_prob) {
    d.corrupt = true;
    ++counters_.corrupted;
    return d;
  }
  if (u_dup < plan_.dup_prob) {
    d.duplicate = true;
    ++counters_.duplicated;
  }
  if (u_delay < plan_.delay_prob) {
    const uint64_t span = static_cast<uint64_t>(plan_.delay_max - plan_.delay_min) + 1;
    d.extra_delay = plan_.delay_min + static_cast<SimTime>(rng_.NextBounded(span));
    ++counters_.delayed;
  }
  return d;
}

}  // namespace hlrc
