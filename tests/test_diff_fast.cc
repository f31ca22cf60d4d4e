// Differential tests for the optimized diff data plane (docs/PERFORMANCE.md):
// CreateDiff (whole-page memcmp short-circuit + 8-byte integer compares) must
// produce byte-identical output to CreateDiffReference, the original
// word-at-a-time memcmp implementation kept as the oracle, across directed
// edge cases and 512 randomized twin/current pairs.
#include "src/mem/diff.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"

namespace hlrc {
namespace {

void ExpectSameDiff(const Diff& fast, const Diff& ref) {
  EXPECT_EQ(fast.page, ref.page);
  ASSERT_EQ(fast.runs.size(), ref.runs.size());
  for (size_t i = 0; i < fast.runs.size(); ++i) {
    EXPECT_EQ(fast.runs[i].offset, ref.runs[i].offset) << "run " << i;
    EXPECT_EQ(fast.runs[i].length, ref.runs[i].length) << "run " << i;
    EXPECT_EQ(fast.runs[i].data_offset, ref.runs[i].data_offset) << "run " << i;
  }
  EXPECT_EQ(fast.data, ref.data);
  EXPECT_EQ(fast.DataBytes(), ref.DataBytes());
  EXPECT_EQ(fast.EncodedSize(), ref.EncodedSize());
}

void CheckPair(const std::vector<std::byte>& twin, const std::vector<std::byte>& cur) {
  const int64_t page = static_cast<int64_t>(twin.size());
  const Diff fast = CreateDiff(7, twin.data(), cur.data(), page);
  const Diff ref = CreateDiffReference(7, twin.data(), cur.data(), page);
  ExpectSameDiff(fast, ref);

  // Applying the optimized diff onto the twin must reconstruct `cur` exactly.
  auto target = twin;
  ApplyDiff(fast, target.data(), page);
  EXPECT_EQ(std::memcmp(target.data(), cur.data(), static_cast<size_t>(page)), 0);
}

std::vector<std::byte> RandomPage(Rng* rng, int64_t bytes) {
  std::vector<std::byte> p(static_cast<size_t>(bytes));
  for (auto& b : p) {
    b = std::byte{static_cast<uint8_t>(rng->NextU64())};
  }
  return p;
}

TEST(DiffFast, AllCleanTakesShortCircuit) {
  Rng rng(1);
  const auto twin = RandomPage(&rng, 4096);
  CheckPair(twin, twin);
  const Diff d = CreateDiff(7, twin.data(), twin.data(), 4096);
  EXPECT_TRUE(d.Empty());
}

TEST(DiffFast, AllDirtyIsOneFullRun) {
  Rng rng(2);
  const auto twin = RandomPage(&rng, 4096);
  auto cur = twin;
  for (auto& b : cur) {
    b ^= std::byte{0xff};
  }
  CheckPair(twin, cur);
  const Diff d = CreateDiff(7, twin.data(), cur.data(), 4096);
  ASSERT_EQ(d.runs.size(), 1u);
  EXPECT_EQ(d.runs[0].length, 4096u);
}

TEST(DiffFast, RunEndingAtPageEnd) {
  Rng rng(3);
  const auto twin = RandomPage(&rng, 4096);
  auto cur = twin;
  // Dirty the final 3 words, so the run must close at the page boundary,
  // not by finding a clean word after it.
  for (int64_t i = 4096 - 3 * kDiffWordBytes; i < 4096; ++i) {
    cur[static_cast<size_t>(i)] ^= std::byte{0x5a};
  }
  CheckPair(twin, cur);
}

TEST(DiffFast, RunStartingAtPageStart) {
  Rng rng(4);
  const auto twin = RandomPage(&rng, 4096);
  auto cur = twin;
  cur[0] ^= std::byte{1};
  CheckPair(twin, cur);
}

TEST(DiffFast, AlternatingWordsMaximizeRunCount) {
  Rng rng(5);
  const auto twin = RandomPage(&rng, 2048);
  auto cur = twin;
  for (int64_t w = 0; w < 2048 / kDiffWordBytes; w += 2) {
    cur[static_cast<size_t>(w * kDiffWordBytes)] ^= std::byte{0xff};
  }
  CheckPair(twin, cur);
}

// A changed byte in every position of every word lane: catches any lane the
// 8-byte integer compare might mask.
TEST(DiffFast, SingleByteInEveryLane) {
  Rng rng(6);
  const auto twin = RandomPage(&rng, 256);
  for (int64_t pos = 0; pos < 64; ++pos) {
    auto cur = twin;
    cur[static_cast<size_t>(pos)] ^= std::byte{0x80};
    CheckPair(twin, cur);
  }
}

// Randomized differential sweep: 2 page sizes x 256 seeds of random dirty
// patterns, 512 pairs.
TEST(DiffFast, RandomizedPairsMatchReference) {
  for (const int64_t page : {1024ll, 4096ll}) {
    for (uint64_t seed = 0; seed < 256; ++seed) {
      Rng rng(seed * 4 + static_cast<uint64_t>(kDiffWordBytes) + static_cast<uint64_t>(page));
      const auto twin = RandomPage(&rng, page);
      auto cur = twin;
      // Mix sparse single-byte pokes and word-aligned block smears.
      const int pokes = static_cast<int>(rng.NextBounded(64));
      for (int i = 0; i < pokes; ++i) {
        cur[rng.NextBounded(static_cast<uint64_t>(page))] =
            std::byte{static_cast<uint8_t>(rng.NextU64())};
      }
      if (rng.NextBool()) {
        const int64_t words = page / kDiffWordBytes;
        const int64_t start = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(words)));
        const int64_t len =
            1 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(words - start)));
        for (int64_t b = start * kDiffWordBytes; b < (start + len) * kDiffWordBytes; ++b) {
          cur[static_cast<size_t>(b)] ^= std::byte{0x33};
        }
      }
      CheckPair(twin, cur);
    }
  }
}

// A rewritten word whose bytes happen to equal the twin's must not appear in
// the diff (content comparison, not write tracking) — and the short-circuit
// must agree with the reference about it.
TEST(DiffFast, RewriteWithSameValueProducesCleanPage) {
  Rng rng(8);
  const auto twin = RandomPage(&rng, 1024);
  auto cur = twin;
  std::memcpy(cur.data() + 512, twin.data() + 512, 64);
  CheckPair(twin, cur);
  const Diff d = CreateDiff(7, twin.data(), cur.data(), 1024);
  EXPECT_TRUE(d.Empty());
}

}  // namespace
}  // namespace hlrc
