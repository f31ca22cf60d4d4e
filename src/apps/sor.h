// Red-black successive over-relaxation (the TreadMarks SOR kernel).
// Row bands per node; nearest-neighbor boundary-row communication at
// barriers; single-writer pages (paper §4.1).
#ifndef SRC_APPS_SOR_H_
#define SRC_APPS_SOR_H_

#include <vector>

#include "src/apps/app.h"

namespace hlrc {

struct SorConfig {
  int rows = 512;
  int cols = 512;
  int iterations = 10;
  // Paper §4.8 experiment: zero interior (writes that change nothing produce
  // no diffs) vs random initialization.
  bool zero_interior = false;
  uint64_t seed = 999;
};

// One red-black relaxation sweep over rows [first, last] of the rows x cols
// grid `dst`, reading the other colour's grid `src`, which must not overlap
// it: 4 flops per element, dst[i][j] = 0.25 * (up + down + left + right),
// summed left to right, with a literal 0.0 for each neighbour past the grid's
// edge. The summation order is fixed, so the nodes' bands and Verify's
// sequential reference agree bit for bit.
void SorSweepRows(double* dst, const double* src, int cols, int first, int last, int rows);

class SorApp : public App {
 public:
  explicit SorApp(const SorConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "SOR"; }
  void Setup(System& sys) override;
  System::Program Program() override;
  bool Verify(System& sys, std::string* why) override;
  std::string ConfigError(const SimConfig& config) const override {
    return RowBandsError(name(), cfg_.rows, config.nodes);
  }

  const SorConfig& config() const { return cfg_; }

 private:
  GlobalAddr RowAddr(GlobalAddr base, int row) const;
  Task<void> NodeMain(NodeContext& ctx);
  void InitRow(double* row_red, double* row_black, int row) const;
  static void BandOf(int rows, int nodes, NodeId id, int* first, int* last);

  SorConfig cfg_;
  GlobalAddr red_ = 0;
  GlobalAddr black_ = 0;
  std::vector<double> ref_red_;
  std::vector<double> ref_black_;
};

}  // namespace hlrc

#endif  // SRC_APPS_SOR_H_
