#include "src/mem/page_table.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/mem/shared_space.h"

namespace hlrc {
namespace {

TEST(PageTable, GeometryAndAddressing) {
  PageTable pt(64 * 1024, 4096);
  EXPECT_EQ(pt.num_pages(), 16);
  EXPECT_EQ(pt.PageOf(0), 0);
  EXPECT_EQ(pt.PageOf(4095), 0);
  EXPECT_EQ(pt.PageOf(4096), 1);
  EXPECT_EQ(pt.AddrData(4096), pt.PageData(1));
  EXPECT_EQ(pt.AddrData(4100), pt.PageData(1) + 4);
}

TEST(PageTable, StartsZeroFilledAndReadable) {
  PageTable pt(16 * 1024, 4096);
  for (PageId p = 0; p < pt.num_pages(); ++p) {
    EXPECT_EQ(pt.State(p).prot(), PageProt::kRead);
    EXPECT_TRUE(pt.State(p).has_copy);
    const std::byte* data = pt.PageData(p);
    for (int i = 0; i < 4096; ++i) {
      EXPECT_EQ(data[i], std::byte{0});
    }
  }
}

TEST(PageTable, CountsEachProtectionLoss) {
  PageTable pt(16 * 1024, 4096);
  pt.SetProt(0, PageProt::kReadWrite);  // Raising access is not a loss.
  pt.SetProt(1, PageProt::kRead);       // Neither is leaving it as it is.
  EXPECT_EQ(pt.prot_losses(), 0u);
  pt.SetProt(0, PageProt::kRead);
  pt.SetProt(1, PageProt::kNone);
  pt.SetProt(1, PageProt::kNone);
  EXPECT_EQ(pt.prot_losses(), 2u);
  pt.SetProt(0, PageProt::kReadWrite);
  pt.SetProt(0, PageProt::kNone);
  EXPECT_EQ(pt.prot_losses(), 3u);
  EXPECT_EQ(pt.State(0).prot(), PageProt::kNone);
}

TEST(PageTable, GrantsFollowsProtection) {
  PageTable pt(16 * 1024, 4096);
  pt.SetProt(0, PageProt::kNone);
  EXPECT_FALSE(pt.State(0).Grants(false));
  EXPECT_FALSE(pt.State(0).Grants(true));
  pt.SetProt(0, PageProt::kRead);
  EXPECT_TRUE(pt.State(0).Grants(false));
  EXPECT_FALSE(pt.State(0).Grants(true));
  pt.SetProt(0, PageProt::kReadWrite);
  EXPECT_TRUE(pt.State(0).Grants(false));
  EXPECT_TRUE(pt.State(0).Grants(true));
}

TEST(PageTable, TwinSnapshotsAndTracksMemory) {
  PageTable pt(16 * 1024, 4096);
  std::memset(pt.PageData(2), 0xAB, 4096);
  pt.MakeTwin(2);
  EXPECT_TRUE(pt.HasTwin(2));
  EXPECT_EQ(pt.TwinBytes(), 4096);
  // Twin holds the snapshot even after the page changes.
  std::memset(pt.PageData(2), 0xCD, 4096);
  EXPECT_EQ(pt.State(2).twin.get()[0], std::byte{0xAB});
  pt.DropTwin(2);
  EXPECT_FALSE(pt.HasTwin(2));
  EXPECT_EQ(pt.TwinBytes(), 0);
}

TEST(PageTable, DropTwinIsIdempotent) {
  PageTable pt(8 * 1024, 4096);
  pt.MakeTwin(0);
  pt.DropTwin(0);
  pt.DropTwin(0);
  EXPECT_EQ(pt.TwinBytes(), 0);
}

TEST(SharedSpace, BumpAllocationAligns) {
  SharedSpace space(1 << 20, 4096);
  const GlobalAddr a = space.Alloc(10);
  const GlobalAddr b = space.Alloc(10);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  EXPECT_GE(b, a + 10);
}

TEST(SharedSpace, PageAlignedAllocation) {
  SharedSpace space(1 << 20, 4096);
  space.Alloc(100);
  const GlobalAddr b = space.AllocPageAligned(8192);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_EQ(space.AllocatedBytes(), static_cast<int64_t>(b) + 8192);
}

TEST(SharedSpace, TracksAllocationsPerObject) {
  SharedSpace space(1 << 20, 4096);
  const GlobalAddr a = space.AllocPageAligned(3 * 4096);
  const GlobalAddr b = space.AllocPageAligned(2 * 4096);
  const SharedSpace::Allocation* aa = space.AllocationOf(static_cast<PageId>(a / 4096));
  const SharedSpace::Allocation* bb = space.AllocationOf(static_cast<PageId>(b / 4096));
  ASSERT_NE(aa, nullptr);
  ASSERT_NE(bb, nullptr);
  EXPECT_NE(aa, bb);
  EXPECT_EQ(aa->last_page - aa->first_page, 2);
  EXPECT_EQ(bb->last_page - bb->first_page, 1);
  EXPECT_EQ(space.AllocationOf(100), nullptr);
}

TEST(SharedSpace, AdjacentSmallAllocationsMergeOnSharedPage) {
  SharedSpace space(1 << 20, 4096);
  const GlobalAddr a = space.Alloc(64);
  const GlobalAddr b = space.Alloc(64);
  EXPECT_EQ(space.AllocationOf(static_cast<PageId>(a / 4096)),
            space.AllocationOf(static_cast<PageId>(b / 4096)));
}

}  // namespace
}  // namespace hlrc
