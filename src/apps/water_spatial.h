// Water-Spatial: the same n-body problem solved with a 3-D linked-cell
// spatial directory. Nodes own contiguous slabs of cells; forces read
// boundary cells of neighboring partitions; molecules migrate slowly between
// cells, with cross-partition insertions protected by per-partition locks
// (paper §4.1).
#ifndef SRC_APPS_WATER_SPATIAL_H_
#define SRC_APPS_WATER_SPATIAL_H_

#include <vector>

#include "src/apps/app.h"

namespace hlrc {

struct WaterSpConfig {
  int molecules = 512;
  int cells = 8;         // Cells per dimension (cells^3 total).
  int cell_capacity = 31;
  int steps = 3;
  double box = 16.0;
  double dt = 0.002;
  uint64_t seed = 777;
};

class WaterSpApp : public App {
 public:
  explicit WaterSpApp(const WaterSpConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "Water-Spatial"; }
  void Setup(System& sys) override;
  System::Program Program() override;
  bool Verify(System& sys, std::string* why) override;

  const WaterSpConfig& config() const { return cfg_; }

 private:
  // Cell storage: per cell, [count, idx0, idx1, ...] as int32.
  int CellInts() const { return 1 + cfg_.cell_capacity; }
  int NumCells() const { return cfg_.cells * cfg_.cells * cfg_.cells; }
  int CellIndex(int cx, int cy, int cz) const {
    return (cz * cfg_.cells + cy) * cfg_.cells + cx;
  }
  GlobalAddr CellAddr(int cell) const {
    return cells_ + static_cast<GlobalAddr>(cell) * static_cast<GlobalAddr>(CellInts()) * 4;
  }
  int CellOfPos(const double* p) const;
  // Slab ownership: cells with z-layer in the node's band.
  NodeId OwnerOfCell(int cell, int nodes) const;

  Task<void> NodeMain(NodeContext& ctx);
  void InitState(double* pos, double* vel, int32_t* cells) const;

  // Reference implementation helpers (host side).
  void ReferenceStep(std::vector<double>* pos, std::vector<double>* vel,
                     std::vector<std::vector<int>>* cells) const;

  WaterSpConfig cfg_;
  GlobalAddr pos_ = 0;
  GlobalAddr vel_ = 0;
  GlobalAddr frc_ = 0;
  GlobalAddr cells_ = 0;
  std::vector<double> ref_pos_;
  std::vector<double> ref_vel_;
  // Host-side record of which node performed the final update of each
  // molecule (whose copy is therefore current), for verification.
  std::vector<NodeId> last_writer_;
};

}  // namespace hlrc

#endif  // SRC_APPS_WATER_SPATIAL_H_
