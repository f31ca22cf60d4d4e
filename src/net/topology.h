// 2-D mesh topology with dimension-ordered (XY) routing, matching the
// Paragon's wormhole-routed mesh. Only the hop count matters for the latency
// model.
#ifndef SRC_NET_TOPOLOGY_H_
#define SRC_NET_TOPOLOGY_H_

#include <utility>

#include "src/common/check.h"
#include "src/common/types.h"

namespace hlrc {

class Mesh2D {
 public:
  // Builds a near-square RxC mesh with R*C >= nodes.
  explicit Mesh2D(int nodes);

  int nodes() const { return nodes_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  std::pair<int, int> Coord(NodeId n) const {
    HLRC_CHECK(n >= 0 && n < nodes_);
    return {n / cols_, n % cols_};
  }

  // Manhattan distance under XY routing.
  int Hops(NodeId a, NodeId b) const;

 private:
  int nodes_;
  int rows_;
  int cols_;
};

}  // namespace hlrc

#endif  // SRC_NET_TOPOLOGY_H_
