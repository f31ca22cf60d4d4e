// Top-level simulation configuration.
#ifndef SRC_SVM_CONFIG_H_
#define SRC_SVM_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/common/types.h"
#include "src/fault/fault_plan.h"
#include "src/mem/diff.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"
#include "src/proto/cost_model.h"
#include "src/proto/options.h"

namespace hlrc {

// Smallest page the simulator accepts: one diff word.
constexpr int64_t kMinPageBytes = kDiffWordBytes;

// Why `page_size` cannot cut a `shared_bytes` shared space into pages, as a
// "--page-size=N: expected ..." message, or "" when it can: a page is a power
// of two, at least `min_bytes` and at most the space. The one check behind
// every front end's --page-size flag.
std::string PageSizeError(int64_t page_size, int64_t shared_bytes,
                          int64_t min_bytes = kMinPageBytes);

struct SimConfig {
  int nodes = 8;
  // SVM page size. The Paragon's OSF/1 used 8 KB pages; smaller pages keep
  // scaled-down problems in a comparable sharing regime.
  int64_t page_size = 4096;
  // Size of the global shared address space (per-node mirror allocation).
  int64_t shared_bytes = 64ll << 20;
  // Root seed of the run, echoed in reports for reproducibility. Consumers
  // (application inputs, the fault injector) derive their own seeds from it
  // unless configured explicitly.
  uint64_t seed = 42;

  ProtocolOptions protocol;
  NetworkConfig network;
  CostModel costs;
  // Fault injection (docs/FAULTS.md). An Active() plan makes the fabric
  // lossy, which turns reliable delivery on (Reliable()).
  FaultPlan fault;
  ReliabilityConfig reliability;

  // Whether the run uses the reliable channel: set explicitly, or implied by
  // an Active() fault plan — a dropped grant or barrier release on the bare
  // fabric would deadlock the run. System applies it to `reliability`.
  bool Reliable() const { return reliability.enabled || fault.Active(); }

  // Why the simulator would refuse this configuration, naming the flag that
  // sets the offending value, or "" when it can run it. Front ends call it
  // before building a System and exit 2 with the message.
  std::string Validate() const;
};

}  // namespace hlrc

#endif  // SRC_SVM_CONFIG_H_
