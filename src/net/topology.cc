#include "src/net/topology.h"

#include <cmath>
#include <cstdlib>

namespace hlrc {

Mesh2D::Mesh2D(int nodes) : nodes_(nodes) {
  HLRC_CHECK(nodes > 0);
  rows_ = static_cast<int>(std::sqrt(static_cast<double>(nodes)));
  while (rows_ > 1 && nodes % rows_ != 0) {
    --rows_;
  }
  cols_ = (nodes + rows_ - 1) / rows_;
}

int Mesh2D::Hops(NodeId a, NodeId b) const {
  const auto [ar, ac] = Coord(a);
  const auto [br, bc] = Coord(b);
  return std::abs(ar - br) + std::abs(ac - bc);
}

}  // namespace hlrc
