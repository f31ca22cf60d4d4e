// Static home placement of the home-based protocols (paper §2.3).
//
// PlacementHome is the placement formula. HomeTable holds its answer for
// every allocated page, filled once at run start, so HomeOf is one array
// index on the write-notice, fault and flush paths instead of a scan of the
// allocation list. Pages past the allocated range fall back to the formula.
// tests/test_home_table.cc checks the table against the formula page by page.
#ifndef SRC_PROTO_HOME_TABLE_H_
#define SRC_PROTO_HOME_TABLE_H_

#include <cstddef>
#include <vector>

#include "src/common/types.h"
#include "src/mem/shared_space.h"
#include "src/proto/options.h"

namespace hlrc {

// Everything the placement depends on.
struct HomePlacement {
  HomePolicy policy = HomePolicy::kBlock;
  int nodes = 1;
  // For allocation-aware block placement; null places by page index alone.
  const SharedSpace* space = nullptr;
  int used_pages = 0;   // Pages the application allocated; 0: the whole space.
  int space_pages = 0;  // Pages in the whole shared space.
};

// The home of `page`. Block: the k-th of `nodes` contiguous bands of the
// page's allocation, or of the used range for a page outside every
// allocation. Round-robin: page mod nodes. Single node: node 0.
NodeId PlacementHome(const HomePlacement& placement, PageId page);

class HomeTable {
 public:
  // Tabulates PlacementHome for pages [0, placement.used_pages).
  explicit HomeTable(const HomePlacement& placement);

  NodeId HomeOf(PageId page) const {
    return static_cast<size_t>(page) < homes_.size() ? homes_[static_cast<size_t>(page)]
                                                      : PlacementHome(placement_, page);
  }

 private:
  HomePlacement placement_;
  std::vector<NodeId> homes_;
};

}  // namespace hlrc

#endif  // SRC_PROTO_HOME_TABLE_H_
