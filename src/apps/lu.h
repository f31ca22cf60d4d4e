// Blocked dense LU factorization without pivoting (Splash-2 LU, contiguous
// blocks). Coarse-grained single-writer sharing, low synchronization
// frequency, inherently imbalanced computation (paper §4.1).
#ifndef SRC_APPS_LU_H_
#define SRC_APPS_LU_H_

#include <vector>

#include "src/apps/app.h"

namespace hlrc {

struct LuConfig {
  int n = 512;     // Matrix dimension.
  int block = 32;  // Block size; n % block == 0 and block % 4 == 0.
  uint64_t seed = 12345;
};

// C -= A * B on row-major block x block matrices, block % 4 == 0. Each
// element of C gets c -= a[i][k] * b[k][j] for k = 0, 1, ..., block - 1 in
// that order, the multiply and the subtract each rounded, so C comes out bit
// for bit as the textbook i-k-j loop leaves it; only the order in which
// different elements are computed differs. C must overlap neither A nor B:
// LU passes blocks (i, k), (k, j) and (i, j) with i, j > k. The node kernels
// and Verify's sequential reference both call it, so they agree bitwise.
void LuMatmulSub(const double* a, const double* b, double* c, int block);

class LuApp : public App {
 public:
  explicit LuApp(const LuConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "LU"; }
  void Setup(System& sys) override;
  System::Program Program() override;
  bool Verify(System& sys, std::string* why) override;

  // Total floating-point operations of the factorization (for reporting).
  int64_t TotalFlops() const;

  const LuConfig& config() const { return cfg_; }

 private:
  int nb() const { return cfg_.n / cfg_.block; }
  // Owner of block (bi, bj): 2-D scatter over a near-square processor grid.
  NodeId OwnerOf(int bi, int bj, int nodes) const;
  GlobalAddr BlockAddr(int bi, int bj) const;

  Task<void> NodeMain(NodeContext& ctx);

  LuConfig cfg_;
  GlobalAddr matrix_ = 0;
  int64_t block_bytes_ = 0;
  std::vector<double> reference_;  // Sequential result, filled lazily.
};

}  // namespace hlrc

#endif  // SRC_APPS_LU_H_
