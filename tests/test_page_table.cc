#include "src/mem/page_table.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "src/mem/shared_space.h"
#include "src/metrics/heat.h"

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
    EXPECT_FALSE(pt.State(p).no_copy);
    const std::byte* data = pt.PageData(p);
    for (int i = 0; i < 4096; ++i) {
      EXPECT_EQ(data[i], std::byte{0});
    }
  }
}

// A ZeroArray element nothing has written is zero bytes, so the fresh value
// of every type kept in one must be zero bytes too.
TEST(PageTable, FreshStatesAreZeroBytes) {
  EXPECT_TRUE(FreshIsZeroBytes<PageState>());
  EXPECT_TRUE(FreshIsZeroBytes<PageHeat>());
}

// Host pages of [data, data + bytes) that mincore(2) finds resident. A page
// that was only read counts too (it maps the shared zero page), so call this
// before anything reads the range.
int ResidentPages(const void* data, size_t bytes) {
  const auto host_page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident((bytes + host_page - 1) / host_page);
  EXPECT_EQ(mincore(const_cast<void*>(data), bytes, resident.data()), 0);
  int n = 0;
  for (unsigned char r : resident) {
    n += r & 1;
  }
  return n;
}

TEST(PageTable, UntouchedStatesStayUnbacked) {
  PageTable pt(256 << 20, 4096);
  ASSERT_EQ(pt.num_pages(), 65536);
  const PageState* states = &pt.State(0);  // Takes the address; reads nothing.
  const size_t bytes = sizeof(PageState) * static_cast<size_t>(pt.num_pages());
  EXPECT_EQ(ResidentPages(states, bytes), 0);
  pt.SetProt(0, PageProt::kNone);
  pt.SetProt(40000, PageProt::kReadWrite);
  EXPECT_EQ(ResidentPages(states, bytes), 2);
  // A page nothing wrote reads as a fresh state.
  EXPECT_EQ(pt.State(65535).prot(), PageProt::kRead);
  EXPECT_FALSE(pt.State(65535).no_copy);
  EXPECT_FALSE(pt.HasTwin(65535));
  EXPECT_EQ(pt.State(0).prot(), PageProt::kNone);
  EXPECT_EQ(pt.State(40000).prot(), PageProt::kReadWrite);
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
  EXPECT_EQ(pt.State(2).twin[0], std::byte{0xAB});
  pt.DropTwin(2);
  EXPECT_FALSE(pt.HasTwin(2));
  EXPECT_EQ(pt.TwinBytes(), 0);
}

TEST(PageTable, DroppedTwinBufferIsReused) {
  PageTable pt(16 * 1024, 4096);
  pt.MakeTwin(1);
  const std::byte* buffer = pt.State(1).twin;
  pt.DropTwin(1);
  EXPECT_EQ(pt.TwinBytes(), 0);
  EXPECT_EQ(pt.State(1).twin, nullptr);
  pt.MakeTwin(3);
  EXPECT_EQ(pt.State(3).twin, buffer);
  EXPECT_EQ(pt.TwinBytes(), 4096);
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
