// Water-Nsquared: O(n^2/2) molecular dynamics with a cutoff radius.
// Contiguous molecule partitions; each node updates its own molecules and
// accumulates forces into the following n/2 molecules under per-partition
// locks — migratory, coarse-grained multiple-writer sharing (paper §4.1).
#ifndef SRC_APPS_WATER_NSQUARED_H_
#define SRC_APPS_WATER_NSQUARED_H_

#include <cstdint>
#include <vector>

#include "src/apps/app.h"

namespace hlrc {

// Pair forces of rows [first, first + count), with n >= 2, 0 <= first and
// first + count <= n: row i meets molecules i + 1, ..., i + n/2 (mod n) in
// that order, and each pair inside the cutoff adds its force to f[i] and
// subtracts it from f[j] (f is n x 3, as pos is). Reads only molecules
// [first, first + count + n/2) mod n. Returns the flops to charge: 12 + 6
// per pair outside the cutoff, 40 + 6 per pair inside.
//
// Each pair's arithmetic is md::PairForce's, and each element of f sees the
// same operations in the same order as when every pair, accepted or not,
// adds its force (+0.0 if rejected) to f[i] and subtracts it from f[j], so f
// comes out bit for bit as that loop leaves it. The node kernels and
// Verify's sequential reference both call it.
int64_t WaterPairRows(const double* pos, int n, int first, int count, double box,
                      double cutoff2, double* f);

struct WaterNsqConfig {
  int molecules = 512;  // Must be divisible by the node count.
  int steps = 3;
  double box = 16.0;    // Simulation box edge length.
  double cutoff = 4.0;  // Interaction cutoff radius.
  double dt = 0.002;
  uint64_t seed = 4242;
};

class WaterNsqApp : public App {
 public:
  explicit WaterNsqApp(const WaterNsqConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "Water-Nsquared"; }
  void Setup(System& sys) override;
  System::Program Program() override;
  bool Verify(System& sys, std::string* why) override;
  std::string ConfigError(const SimConfig& config) const override;

  const WaterNsqConfig& config() const { return cfg_; }

 private:
  Task<void> NodeMain(NodeContext& ctx);
  void InitMolecules(double* pos, double* vel) const;

  WaterNsqConfig cfg_;
  GlobalAddr pos_ = 0;
  GlobalAddr vel_ = 0;
  GlobalAddr frc_ = 0;
  std::vector<double> ref_pos_;
  std::vector<double> ref_vel_;
};

}  // namespace hlrc

#endif  // SRC_APPS_WATER_NSQUARED_H_
