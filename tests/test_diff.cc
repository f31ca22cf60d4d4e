#include "src/mem/diff.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"

namespace hlrc {
namespace {

constexpr int64_t kPage = 1024;

std::vector<std::byte> MakePage(uint8_t fill) {
  return std::vector<std::byte>(kPage, std::byte{fill});
}

TEST(Diff, IdenticalPagesProduceEmptyDiff) {
  auto twin = MakePage(0xAA);
  auto cur = twin;
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  EXPECT_TRUE(d.Empty());
  EXPECT_EQ(d.DataBytes(), 0);
}

TEST(Diff, SingleWordChange) {
  auto twin = MakePage(0);
  auto cur = twin;
  cur[128] = std::byte{0xFF};
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  ASSERT_EQ(d.runs.size(), 1u);
  EXPECT_EQ(d.runs[0].offset, 128u);
  EXPECT_EQ(d.runs[0].length, 8u);  // Word granularity.
  EXPECT_EQ(d.DataBytes(), 8);
}

TEST(Diff, AdjacentWordsCoalesceIntoOneRun) {
  auto twin = MakePage(0);
  auto cur = twin;
  for (int i = 64; i < 96; ++i) {
    cur[static_cast<size_t>(i)] = std::byte{1};
  }
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  ASSERT_EQ(d.runs.size(), 1u);
  EXPECT_EQ(d.runs[0].offset, 64u);
  EXPECT_EQ(d.runs[0].length, 32u);
}

TEST(Diff, DisjointChangesProduceMultipleRuns) {
  auto twin = MakePage(0);
  auto cur = twin;
  cur[0] = std::byte{1};
  cur[512] = std::byte{2};
  cur[kPage - 1] = std::byte{3};
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  EXPECT_EQ(d.runs.size(), 3u);
}

TEST(Diff, FullyDirtyPageIsOneRun) {
  auto twin = MakePage(0);
  auto cur = MakePage(0xEE);
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  ASSERT_EQ(d.runs.size(), 1u);
  EXPECT_EQ(d.DataBytes(), kPage);
}

TEST(Diff, ApplyReconstructsPage) {
  Rng rng(7);
  auto twin = MakePage(0);
  auto cur = twin;
  for (int i = 0; i < 100; ++i) {
    cur[rng.NextBounded(kPage)] = std::byte{static_cast<uint8_t>(rng.NextU64())};
  }
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  auto target = twin;
  ApplyDiff(d, target.data(), kPage);
  EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPage), 0);
}

TEST(Diff, ApplyIsIdempotent) {
  auto twin = MakePage(0);
  auto cur = twin;
  cur[100] = std::byte{9};
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  auto target = twin;
  ApplyDiff(d, target.data(), kPage);
  ApplyDiff(d, target.data(), kPage);
  EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPage), 0);
}

TEST(Diff, DisjointDiffsCommute) {
  auto base = MakePage(0);
  auto a = base;
  auto b = base;
  a[8] = std::byte{1};
  b[808] = std::byte{2};
  const Diff da = CreateDiff(1, base.data(), a.data(), kPage);
  const Diff db = CreateDiff(1, base.data(), b.data(), kPage);

  auto t1 = base;
  ApplyDiff(da, t1.data(), kPage);
  ApplyDiff(db, t1.data(), kPage);
  auto t2 = base;
  ApplyDiff(db, t2.data(), kPage);
  ApplyDiff(da, t2.data(), kPage);
  EXPECT_EQ(std::memcmp(t1.data(), t2.data(), kPage), 0);
  EXPECT_EQ(t1[8], std::byte{1});
  EXPECT_EQ(t1[808], std::byte{2});
}

TEST(Diff, EncodedSizeAccountsRunsAndPayload) {
  auto twin = MakePage(0);
  auto cur = twin;
  cur[0] = std::byte{1};
  cur[512] = std::byte{2};
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  EXPECT_EQ(d.EncodedSize(), Diff::kHeaderBytes + 2 * Diff::kRunHeaderBytes + 16);
}

// Property: random twin/current pairs round-trip exactly through create/apply.
class DiffFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DiffFuzzTest, RoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Discarded draw: it once chose the diff word size, and keeping it leaves
  // every later draw of each seed where it was.
  rng.NextBool();
  std::vector<std::byte> twin(kPage);
  for (auto& b : twin) {
    b = std::byte{static_cast<uint8_t>(rng.NextU64())};
  }
  auto cur = twin;
  const int changes = static_cast<int>(rng.NextBounded(200));
  for (int i = 0; i < changes; ++i) {
    cur[rng.NextBounded(kPage)] = std::byte{static_cast<uint8_t>(rng.NextU64())};
  }
  const Diff d = CreateDiff(1, twin.data(), cur.data(), kPage);
  auto target = twin;
  ApplyDiff(d, target.data(), kPage);
  EXPECT_EQ(std::memcmp(target.data(), cur.data(), kPage), 0);

  // Runs are within bounds, non-empty and word aligned.
  for (const DiffRun& r : d.runs) {
    EXPECT_LT(r.offset, kPage);
    EXPECT_GT(r.length, 0u);
    EXPECT_EQ(r.offset % kDiffWordBytes, 0);
    EXPECT_EQ(r.length % kDiffWordBytes, 0);
    EXPECT_LE(static_cast<size_t>(r.data_offset) + r.length, d.data.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffFuzzTest, ::testing::Range(0, 32));

}  // namespace
}  // namespace hlrc
