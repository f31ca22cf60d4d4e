// Randomized property tests for the ordering primitives the protocols and
// the checker oracle are built on: VectorClock (src/proto/vector_clock.h)
// and interval records/keys (src/proto/interval.h). Each property is checked
// over a few thousand Rng-driven cases; failures print the violating clocks.
// The cached apply order is checked differentially against
// VectorClock::TotalOrderLess, its reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/proto/interval.h"
#include "src/proto/vector_clock.h"

namespace hlrc {
namespace {

constexpr int kCases = 2000;

VectorClock RandomClock(Rng& rng, int nodes, uint32_t max_component) {
  VectorClock vt(nodes);
  for (int n = 0; n < nodes; ++n) {
    vt.Set(n, static_cast<uint32_t>(rng.NextBounded(max_component + 1)));
  }
  return vt;
}

std::string Show(const VectorClock& vt) {
  std::ostringstream os;
  os << "[";
  for (int n = 0; n < vt.size(); ++n) {
    os << (n ? "," : "") << vt.Get(n);
  }
  os << "]";
  return os.str();
}

VectorClock Merged(const VectorClock& a, const VectorClock& b) {
  VectorClock m = a;
  m.MergeWith(b);
  return m;
}

TEST(VectorClockProperty, MergeIsCommutativeAssociativeIdempotent) {
  Rng rng(1);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(8));
    const VectorClock a = RandomClock(rng, nodes, 5);
    const VectorClock b = RandomClock(rng, nodes, 5);
    const VectorClock c = RandomClock(rng, nodes, 5);
    EXPECT_TRUE(Merged(a, b) == Merged(b, a)) << Show(a) << " " << Show(b);
    EXPECT_TRUE(Merged(Merged(a, b), c) == Merged(a, Merged(b, c)))
        << Show(a) << " " << Show(b) << " " << Show(c);
    EXPECT_TRUE(Merged(a, a) == a) << Show(a);
  }
}

TEST(VectorClockProperty, MergeIsLeastUpperBound) {
  Rng rng(2);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(8));
    const VectorClock a = RandomClock(rng, nodes, 5);
    const VectorClock b = RandomClock(rng, nodes, 5);
    const VectorClock m = Merged(a, b);
    EXPECT_TRUE(a.DominatedBy(m) && b.DominatedBy(m)) << Show(a) << " " << Show(b);
    // Least: any upper bound of both dominates the merge.
    VectorClock ub = RandomClock(rng, nodes, 5);
    ub.MergeWith(a);
    ub.MergeWith(b);
    EXPECT_TRUE(m.DominatedBy(ub)) << Show(m) << " " << Show(ub);
  }
}

TEST(VectorClockProperty, DominanceIsAntisymmetricPartialOrder) {
  Rng rng(3);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(6));
    const VectorClock a = RandomClock(rng, nodes, 3);
    const VectorClock b = RandomClock(rng, nodes, 3);
    const VectorClock c = RandomClock(rng, nodes, 3);
    EXPECT_TRUE(a.DominatedBy(a)) << Show(a);
    if (a.DominatedBy(b) && b.DominatedBy(a)) {
      EXPECT_TRUE(a == b) << Show(a) << " " << Show(b);
    }
    if (a.DominatedBy(b) && b.DominatedBy(c)) {
      EXPECT_TRUE(a.DominatedBy(c)) << Show(a) << " " << Show(b) << " " << Show(c);
    }
  }
}

TEST(VectorClockProperty, HappensBeforeAndConcurrencyPartitionPairs) {
  Rng rng(4);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(6));
    const VectorClock a = RandomClock(rng, nodes, 3);
    const VectorClock b = RandomClock(rng, nodes, 3);
    // Exactly one of: a hb b, b hb a, a == b, a || b.
    const int kinds = (a.HappensBefore(b) ? 1 : 0) + (b.HappensBefore(a) ? 1 : 0) +
                      (a == b ? 1 : 0) + (a.ConcurrentWith(b) ? 1 : 0);
    EXPECT_EQ(kinds, 1) << Show(a) << " " << Show(b);
    EXPECT_FALSE(a.HappensBefore(a)) << Show(a);
  }
}

TEST(VectorClockProperty, TotalOrderRefinesHappensBefore) {
  Rng rng(5);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(6));
    const VectorClock a = RandomClock(rng, nodes, 3);
    const VectorClock b = RandomClock(rng, nodes, 3);
    if (a.HappensBefore(b)) {
      EXPECT_TRUE(a.TotalOrderLess(b)) << Show(a) << " " << Show(b);
    }
    if (!(a == b)) {
      // Strict total order: exactly one direction.
      EXPECT_NE(a.TotalOrderLess(b), b.TotalOrderLess(a)) << Show(a) << " " << Show(b);
    } else {
      EXPECT_FALSE(a.TotalOrderLess(b)) << Show(a);
    }
  }
}

TEST(VectorClockProperty, BumpCreatesHappensBeforeSuccessor) {
  Rng rng(6);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(6));
    VectorClock a = RandomClock(rng, nodes, 3);
    const VectorClock before = a;
    const NodeId n = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
    a.Bump(n);
    EXPECT_TRUE(before.HappensBefore(a)) << Show(before) << " " << Show(a);
    EXPECT_EQ(a.Get(n), before.Get(n) + 1);
  }
}

TEST(IntervalProperty, KeyOrderingIsStrictAndConsistentWithEquality) {
  Rng rng(7);
  auto random_key = [&rng] {
    return IntervalKey{static_cast<NodeId>(rng.NextBounded(8)),
                       static_cast<uint32_t>(rng.NextBounded(8))};
  };
  for (int i = 0; i < kCases; ++i) {
    const IntervalKey a = random_key();
    const IntervalKey b = random_key();
    const IntervalKey c = random_key();
    EXPECT_FALSE(a < a);
    EXPECT_EQ(a == b, !(a < b) && !(b < a));
    if (a < b && b < c) {
      EXPECT_TRUE(a < c);
    }
    if (a == b) {
      EXPECT_EQ(IntervalKeyHash()(a), IntervalKeyHash()(b));
    }
  }
}

TEST(IntervalProperty, EncodedSizeCountsNoticesAndOptionalTimestamp) {
  Rng rng(8);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(16));
    IntervalRecord rec;
    rec.writer = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
    rec.vt = RandomClock(rng, nodes, 9);
    const int pages = static_cast<int>(rng.NextBounded(32));
    for (int p = 0; p < pages; ++p) {
      rec.pages.push_back(static_cast<PageId>(rng.NextBounded(1024)));
    }
    // Home-based wire format: header + 4 bytes per notice.
    EXPECT_EQ(rec.EncodedSize(/*with_vt=*/false), 8 + 4 * pages);
    // Homeless adds the full vector timestamp (4 bytes per node), so the
    // delta grows linearly with the machine size.
    EXPECT_EQ(rec.EncodedSize(/*with_vt=*/true) - rec.EncodedSize(/*with_vt=*/false),
              4 * nodes);
    EXPECT_EQ(rec.vt.EncodedSize(), 4 * nodes);
  }
}

IntervalRecord SealedRecord(const VectorClock& vt) {
  IntervalRecord rec;
  rec.vt = vt;
  rec.Seal();
  return rec;
}

// The homeless fault path sorts collected diffs with ApplyOrderLess, which
// reads the component sums cached at Seal(). It must answer exactly what the
// reference VectorClock::TotalOrderLess answers, so that std::sort yields the
// same permutation. Small components make equal sums common; a third of the
// pairs are equal-sum rearrangements and a sixth are equal timestamps.
TEST(IntervalProperty, ApplyOrderMatchesTotalOrderReference) {
  Rng rng(9);
  int equal_sums = 0;
  int equal_clocks = 0;
  for (int i = 0; i < 1000; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(64));
    const VectorClock va = RandomClock(rng, nodes, 3);
    VectorClock vb = RandomClock(rng, nodes, 3);
    const uint64_t shape = rng.NextBounded(6);
    if (shape == 0) {
      vb = va;
    } else if (shape <= 2) {
      // Move one unit between two components: same sum, other order.
      vb = va;
      const NodeId from = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
      const NodeId to = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
      if (vb.Get(from) > 0) {
        vb.Set(from, vb.Get(from) - 1);
        vb.Set(to, vb.Get(to) + 1);
      }
    }
    const IntervalRecord a = SealedRecord(va);
    const IntervalRecord b = SealedRecord(vb);
    equal_sums += va.Sum() == vb.Sum() ? 1 : 0;
    equal_clocks += va == vb ? 1 : 0;
    EXPECT_EQ(ApplyOrderLess(a, b), va.TotalOrderLess(vb)) << Show(va) << " " << Show(vb);
    EXPECT_EQ(ApplyOrderLess(b, a), vb.TotalOrderLess(va)) << Show(va) << " " << Show(vb);
  }
  EXPECT_GT(equal_sums, 300);
  EXPECT_GT(equal_clocks, 100);

  // Whole sorts: the same permutation from either comparator.
  for (int i = 0; i < 100; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(64));
    std::vector<IntervalRecord> recs;
    for (int r = 0; r < 24; ++r) {
      recs.push_back(SealedRecord(RandomClock(rng, nodes, 1)));
    }
    std::vector<int> by_reference(recs.size());
    for (size_t r = 0; r < recs.size(); ++r) {
      by_reference[r] = static_cast<int>(r);
    }
    std::vector<int> by_cache = by_reference;
    std::sort(by_reference.begin(), by_reference.end(),
              [&recs](int x, int y) { return recs[x].vt.TotalOrderLess(recs[y].vt); });
    std::sort(by_cache.begin(), by_cache.end(),
              [&recs](int x, int y) { return ApplyOrderLess(recs[x], recs[y]); });
    EXPECT_EQ(by_reference, by_cache);
  }
}

}  // namespace
}  // namespace hlrc
