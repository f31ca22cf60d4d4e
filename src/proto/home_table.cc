#include "src/proto/home_table.h"

#include <algorithm>
#include <cstdint>

namespace hlrc {
namespace {

// Band of `offset` when `span` pages are split into `nodes` contiguous bands.
NodeId Band(int64_t offset, int nodes, int64_t span) {
  return static_cast<NodeId>(offset * nodes / span);
}

}  // namespace

NodeId PlacementHome(const HomePlacement& placement, PageId page) {
  const int num_pages = placement.used_pages > 0 ? std::max(placement.used_pages, page + 1)
                                                 : placement.space_pages;
  switch (placement.policy) {
    case HomePolicy::kBlock: {
      // Contiguous chunks *per allocation*: the k-th band of every array is
      // homed on node k — the paper's "homes chosen intelligently", matching
      // the applications' block partitioning.
      if (placement.space != nullptr) {
        const SharedSpace::Allocation* alloc = placement.space->AllocationOf(page);
        if (alloc != nullptr) {
          return Band(page - alloc->first_page, placement.nodes,
                      alloc->last_page - alloc->first_page + 1);
        }
      }
      return Band(page, placement.nodes, num_pages);
    }
    case HomePolicy::kRoundRobin:
      return static_cast<NodeId>(page % placement.nodes);
    case HomePolicy::kSingleNode:
      return 0;
  }
  return 0;
}

HomeTable::HomeTable(const HomePlacement& placement)
    : placement_(placement), homes_(static_cast<size_t>(placement.used_pages)) {
  for (PageId p = 0; p < placement.used_pages; ++p) {
    homes_[static_cast<size_t>(p)] = PlacementHome(placement, p);
  }
}

}  // namespace hlrc
