// Water-Nsquared: O(n^2/2) molecular dynamics with a cutoff radius.
// Contiguous molecule partitions; each node updates its own molecules and
// accumulates forces into the following n/2 molecules under per-partition
// locks — migratory, coarse-grained multiple-writer sharing (paper §4.1).
#ifndef SRC_APPS_WATER_NSQUARED_H_
#define SRC_APPS_WATER_NSQUARED_H_

#include <vector>

#include "src/apps/app.h"

namespace hlrc {

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

  // Pair interaction force on molecule i from j (both-side accumulation is
  // done by the caller). Returns flops performed.
  static int64_t PairForce(const double* pos, int i, int j, double box, double cutoff2,
                           double* fx, double* fy, double* fz);

  WaterNsqConfig cfg_;
  GlobalAddr pos_ = 0;
  GlobalAddr vel_ = 0;
  GlobalAddr frc_ = 0;
  std::vector<double> ref_pos_;
  std::vector<double> ref_vel_;
};

}  // namespace hlrc

#endif  // SRC_APPS_WATER_NSQUARED_H_
