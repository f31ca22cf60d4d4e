// Litmus tests for the consistency checker (src/check, docs/CHECKING.md).
//
// Each litmus is a miniature shared-memory program exercising one classic
// weak-consistency pattern at word granularity. Every shared access goes
// through NodeContext::LoadWord / StoreWord so a registered AccessObserver
// (the LRC oracle) sees the exact value each read returned, and every stored
// value is unique per (node, round, slot), which lets the oracle identify
// the originating write of any read without instrumentation.
//
// The programs are schedule-robust by construction: polling loops are
// bounded, every round ends at a barrier, and a run is correct under *any*
// schedule the explorer produces — "reader missed this round's handoff" is a
// legal outcome; returning a happens-before-masked (stale) value is not.
// That split is exactly what makes them usable under seeded schedule
// exploration.
#ifndef SRC_APPS_LITMUS_H_
#define SRC_APPS_LITMUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/svm/system.h"

namespace hlrc {

struct LitmusConfig {
  int nodes = 4;
  int rounds = 3;
  // Seeds the per-node compute-time perturbations that desynchronize the
  // nodes (extra schedule diversity on top of the explorer's chaos hooks).
  uint64_t seed = 1;
};

class LitmusTest {
 public:
  virtual ~LitmusTest() = default;

  virtual std::string name() const = 0;

  // Allocates shared memory; called once before System::Run.
  virtual void Setup(System& sys) = 0;

  // The per-node program.
  virtual System::Program Program() = 0;

  // Why the test cannot run on pages of `page_size` bytes, as a message
  // naming the flag, or "" if it can. svmcheck checks it before the sweep
  // and exits 2.
  virtual std::string ConfigError(int64_t page_size) const {
    (void)page_size;
    return "";
  }
};

// The unique value written by `node` in `round` at `slot` (never 0; 0 is the
// initial page content).
constexpr uint64_t LitmusValue(NodeId node, int round, int slot) {
  return (static_cast<uint64_t>(node) + 1) << 32 |
         (static_cast<uint64_t>(round) + 1) << 16 | (static_cast<uint64_t>(slot) + 1);
}

// Factory by name: "message-passing", "store-buffer", "lock-handoff",
// "barrier-propagation", "false-sharing". Aborts on unknown names.
std::unique_ptr<LitmusTest> MakeLitmus(const std::string& name, const LitmusConfig& config);

// All litmus names, in the order above.
const std::vector<std::string>& LitmusNames();

}  // namespace hlrc

#endif  // SRC_APPS_LITMUS_H_
