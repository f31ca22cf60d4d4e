// The home table against the placement formula it tabulates.
//
// HomeTable is built once per run from PlacementHome; the home-based
// protocols look homes up in it on every write notice, fault and flush. For
// every layout, policy and node count below, the table and the formula must
// name the same home for every page, including pages past the allocated
// range, where the table falls back to the formula.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/mem/shared_space.h"
#include "src/proto/home_table.h"

namespace hlrc {
namespace {

constexpr int64_t kPage = 4096;
constexpr int64_t kSpaceBytes = 256 * kPage;

struct Layout {
  std::string name;
  std::function<void(SharedSpace&)> allocate;
  // Allocations that merged because they share a page, in pages.
  std::vector<SharedSpace::Allocation> merged;
};

std::vector<Layout> Layouts() {
  return {
      {"nothing allocated", [](SharedSpace&) {}, {}},
      {"one allocation", [](SharedSpace& s) { s.AllocPageAligned(10 * kPage); }, {}},
      {"aligned, unaligned and merged",
       [](SharedSpace& s) {
         s.Alloc(100);                        // Page 0.
         s.AllocPageAligned(3 * kPage);       // Pages 1-3.
         s.Alloc(kPage / 2);                  // Page 4...
         s.Alloc(kPage);                      // ...4-5: merges on page 4.
         s.AllocPageAligned(7 * kPage + 24);  // Pages 6-13...
         s.Alloc(5000);                       // ...13-14: merges on page 13.
         s.AllocPageAligned(kPage);           // Page 15.
         s.Alloc(24);                         // Page 16.
       },
       {{4, 5}, {6, 14}}},
  };
}

// What System::Run passes to SetUsedPages.
int UsedPages(const SharedSpace& space) {
  return std::max(1, static_cast<int>((space.AllocatedBytes() + kPage - 1) / kPage));
}

TEST(HomeTable, MatchesThePlacementFormulaOnEveryPage) {
  for (const Layout& layout : Layouts()) {
    SharedSpace space(kSpaceBytes, kPage);
    layout.allocate(space);
    for (const SharedSpace::Allocation& want : layout.merged) {
      const SharedSpace::Allocation* got = space.AllocationOf(want.first_page);
      ASSERT_NE(got, nullptr) << layout.name;
      ASSERT_EQ(got->first_page, want.first_page) << layout.name;
      ASSERT_EQ(got->last_page, want.last_page) << layout.name;
    }
    const int used = UsedPages(space);
    for (HomePolicy policy :
         {HomePolicy::kBlock, HomePolicy::kRoundRobin, HomePolicy::kSingleNode}) {
      for (int nodes : {1, 3, 8, 64}) {
        // Without the allocation list, block placement goes by page index.
        const SharedSpace* const lists[] = {&space, nullptr};
        for (const SharedSpace* allocs : lists) {
          const HomePlacement placement{policy, nodes, allocs, used,
                                        static_cast<int>(kSpaceBytes / kPage)};
          const HomeTable table(placement);
          // Well past the allocated range: those pages fall back to the
          // formula.
          for (PageId p = 0; p < used + 40; ++p) {
            ASSERT_EQ(table.HomeOf(p), PlacementHome(placement, p))
                << layout.name << ", " << HomePolicyName(policy) << ", " << nodes
                << " nodes, page " << p << " of " << used << " used"
                << (allocs == nullptr ? ", no allocation list" : "");
          }
        }
      }
    }
  }
}

// The formula itself: block bands per allocation, and over the used range
// for pages outside every allocation.
TEST(HomeTable, BlockPlacementSplitsEachAllocationIntoBands) {
  SharedSpace space(kSpaceBytes, kPage);
  space.AllocPageAligned(10 * kPage);  // Pages 0-9.
  space.AllocPageAligned(2 * kPage);   // Pages 10-11.
  const HomeTable table(HomePlacement{HomePolicy::kBlock, 3, &space, 12, 256});
  const std::vector<NodeId> want = {0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1};
  for (PageId p = 0; p < 12; ++p) {
    EXPECT_EQ(table.HomeOf(p), want[static_cast<size_t>(p)]) << "page " << p;
  }
  // Page 20 lies outside every allocation: band 20 * 3 / 21 of the used
  // range stretched to cover it.
  EXPECT_EQ(table.HomeOf(20), 2);

  const HomeTable rr(HomePlacement{HomePolicy::kRoundRobin, 3, &space, 12, 256});
  EXPECT_EQ(rr.HomeOf(7), 1);
  const HomeTable single(HomePlacement{HomePolicy::kSingleNode, 3, &space, 12, 256});
  EXPECT_EQ(single.HomeOf(7), 0);
}

}  // namespace
}  // namespace hlrc
