// Six-step 1-D FFT (extension application; Splash-2's FFT workload class).
//
// The N = n x n complex dataset is processed as transpose -> row FFTs ->
// twiddle multiply -> transpose -> row FFTs -> transpose. Rows are block
// partitioned, so every transpose is an all-to-all exchange — a communication
// pattern none of the paper's five applications exhibits, and a hard case for
// homeless protocols (every node needs diffs from every other node each
// phase).
#ifndef SRC_APPS_FFT_H_
#define SRC_APPS_FFT_H_

#include <complex>
#include <vector>

#include "src/apps/app.h"

namespace hlrc {

struct FftConfig {
  int n = 256;  // Matrix edge; the transform size is n*n. Power of two.
  uint64_t seed = 271828;
};

class FftApp : public App {
 public:
  explicit FftApp(const FftConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "FFT"; }
  void Setup(System& sys) override;
  System::Program Program() override;
  bool Verify(System& sys, std::string* why) override;
  std::string ConfigError(const SimConfig& config) const override {
    return RowBandsError(name(), cfg_.n, config.nodes);
  }

  const FftConfig& config() const { return cfg_; }

 private:
  using Cplx = std::complex<double>;

  Task<void> NodeMain(NodeContext& ctx);
  static void BandOf(int rows, int nodes, NodeId id, int* first, int* last);
  static void RowFft(Cplx* row, int n);
  Cplx InitValue(int i, int j) const;

  // One whole six-step transform on a host buffer (sequential reference,
  // identical operation order per element).
  void ReferenceTransform(std::vector<Cplx>* data) const;

  FftConfig cfg_;
  GlobalAddr a_ = 0;  // Ping and pong matrices.
  GlobalAddr b_ = 0;
  std::vector<Cplx> reference_;
};

}  // namespace hlrc

#endif  // SRC_APPS_FFT_H_
