// Differential tests of the application kernels against their per-element
// reference loops: the optimized kernels must produce the same bytes.
//
// SorSweepRows peels its edge columns and picks each row's neighbours once,
// so that its interior loop has no branch. The textbook loop below, with four
// boundary tests per element, is the reference: every element must add the
// same operands in the same order, so the outputs compare with memcmp.
//
// LuMatmulSub keeps a 4 x 4 tile of C in packed accumulators across the whole
// k loop. The i-k-j loop below is its reference: every element must see the
// same rounded multiply, then the same rounded subtract, in the same k order.
//
// WaterPairRows computes a row's wrapped deltas and r^2 two pairs at a time
// and then evaluates only the pairs inside the cutoff. Water-Nsquared's
// per-pair loop below, which adds every pair's force (+0.0 when rejected) to
// f[i] and subtracts it from f[j], is its reference: every element of f must
// see the same operations in the same order, and the flop counts must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/lu.h"
#include "src/apps/md_common.h"
#include "src/apps/sor.h"
#include "src/apps/water_nsquared.h"

namespace hlrc {
namespace {

// The per-element sweep SorSweepRows replaced, kept verbatim as the
// reference.
void SweepRowsReference(double* dst, const double* src, int cols, int first, int last,
                        int rows) {
  for (int i = first; i <= last; ++i) {
    for (int j = 0; j < cols; ++j) {
      const double up = i > 0 ? src[(i - 1) * cols + j] : 0.0;
      const double down = i < rows - 1 ? src[(i + 1) * cols + j] : 0.0;
      const double left = j > 0 ? src[i * cols + j - 1] : 0.0;
      const double right = j < cols - 1 ? src[i * cols + j + 1] : 0.0;
      dst[i * cols + j] = 0.25 * (up + down + left + right);
    }
  }
}

// The i-k-j block update LuMatmulSub replaced, kept verbatim as the
// reference.
void MatmulSubReference(const double* a, const double* bm, double* c, int b) {
  for (int i = 0; i < b; ++i) {
    for (int k = 0; k < b; ++k) {
      const double av = a[i * b + k];
      for (int j = 0; j < b; ++j) {
        c[i * b + j] -= av * bm[k * b + j];
      }
    }
  }
}

// The per-pair loop WaterPairRows replaced, kept verbatim as the reference:
// Water-Nsquared's node kernel over rows [first, first + count).
int64_t PairRowsReference(const double* pos, int n, int first, int count, double box,
                          double cutoff2, double* local_f) {
  const int half = n / 2;
  int64_t flops = 0;
  for (int i = first; i < first + count; ++i) {
    for (int off = 1; off <= half; ++off) {
      const int j = (i + off) % n;
      double fx = 0;
      double fy = 0;
      double fz = 0;
      flops += md::PairForce(pos, i, j, box, cutoff2, &fx, &fy, &fz);
      local_f[static_cast<size_t>(i) * 3 + 0] += fx;
      local_f[static_cast<size_t>(i) * 3 + 1] += fy;
      local_f[static_cast<size_t>(i) * 3 + 2] += fz;
      local_f[static_cast<size_t>(j) * 3 + 0] -= fx;
      local_f[static_cast<size_t>(j) * 3 + 1] -= fy;
      local_f[static_cast<size_t>(j) * 3 + 2] -= fz;
      flops += 6;
    }
  }
  return flops;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

// A random finite double: ordinary magnitudes, arbitrary exponents,
// subnormals and signed zeros, so that sums overflow, underflow and cancel.
double RandomValue(std::mt19937_64& rng) {
  const uint64_t bits = rng();
  const uint64_t sign = bits & (uint64_t{1} << 63);
  switch (rng() % 6) {
    case 0:
    case 1:
      return std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
    case 2: {
      const double d = FromBits(bits);
      return std::isfinite(d) ? d : FromBits(bits & ~(uint64_t{1} << 62));
    }
    case 3:  // Subnormal: zero exponent, nonzero mantissa.
      return FromBits(sign | (bits & ((uint64_t{1} << 52) - 1)) | 1);
    case 4:
      return FromBits(sign);  // +0.0 or -0.0.
    default:
      return std::ldexp(std::uniform_real_distribution<double>(-1.0, 1.0)(rng),
                        static_cast<int>(rng() % 2000) - 1000);
  }
}

// Mostly -0.0, some +0.0, a few subnormals: neighbourhoods whose every
// operand is -0.0 occur often, where an edge's literal 0.0 decides the sign.
double SignedZeroValue(std::mt19937_64& rng) {
  const uint64_t r = rng() % 10;
  if (r < 6) {
    return -0.0;
  }
  if (r < 9) {
    return 0.0;
  }
  return FromBits(((rng() & 1) << 63) | (rng() & ((uint64_t{1} << 52) - 1)) | 1);
}

// Sweeps every band of every grid shape up to 9 rows x 40 columns with both
// kernels, over the same source and the same prior destination contents, and
// compares the whole destination byte for byte (rows outside the band must
// stay untouched).
template <typename Gen>
void CompareAllShapes(uint64_t seed, Gen gen) {
  std::mt19937_64 rng(seed);
  int compared = 0;
  for (int rows = 1; rows <= 9; ++rows) {
    for (int cols = 1; cols <= 40; ++cols) {
      const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
      std::vector<double> src(n);
      std::vector<double> prior(n);
      for (size_t k = 0; k < n; ++k) {
        src[k] = gen(rng);
        prior[k] = gen(rng);
      }
      for (int first = 0; first < rows; ++first) {
        for (int last = first; last < rows; ++last) {
          std::vector<double> want = prior;
          std::vector<double> got = prior;
          SweepRowsReference(want.data(), src.data(), cols, first, last, rows);
          SorSweepRows(got.data(), src.data(), cols, first, last, rows);
          ASSERT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)), 0)
              << "rows " << rows << " cols " << cols << " band [" << first << ", " << last
              << "]";
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 165 * 40);  // sum over rows of rows * (rows + 1) / 2 bands.
}

TEST(SorSweep, MatchesPerElementLoopOnRandomFiniteValues) {
  CompareAllShapes(1, RandomValue);
  CompareAllShapes(2, RandomValue);
}

TEST(SorSweep, MatchesPerElementLoopOnSignedZeros) {
  CompareAllShapes(3, SignedZeroValue);
  CompareAllShapes(4, [](std::mt19937_64&) { return -0.0; });
}

TEST(SorSweep, EdgeZeroDecidesTheSignOfNegativeZeroNeighbourhoods) {
  // Every element of the grid is -0.0. An interior element adds four -0.0
  // operands and stays -0.0; every element on the grid's edge adds the
  // literal 0.0 that stands in for its missing neighbour, and -0.0 + 0.0 is
  // +0.0.
  const int rows = 3;
  const int cols = 5;
  const std::vector<double> src(rows * cols, -0.0);
  std::vector<double> dst(rows * cols, 1.0);
  SorSweepRows(dst.data(), src.data(), cols, 0, rows - 1, rows);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const double v = dst[static_cast<size_t>(i * cols + j)];
      const bool interior = i > 0 && i < rows - 1 && j > 0 && j < cols - 1;
      EXPECT_EQ(v, 0.0);
      EXPECT_EQ(std::signbit(v), interior) << "row " << i << " col " << j;
    }
  }
}

TEST(SorSweep, LargeGridMatchesPerElementLoop) {
  // A band in the middle of a grid wide enough for the vector loop's main
  // body, plus the whole grid, as the sequential reference sweeps it.
  const int rows = 64;
  const int cols = 517;
  std::mt19937_64 rng(5);
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  std::vector<double> src(n);
  for (double& v : src) {
    v = RandomValue(rng);
  }
  for (const auto& [first, last] : {std::pair{0, rows - 1}, std::pair{17, 40}}) {
    std::vector<double> want(n, 3.0);
    std::vector<double> got(n, 3.0);
    SweepRowsReference(want.data(), src.data(), cols, first, last, rows);
    SorSweepRows(got.data(), src.data(), cols, first, last, rows);
    EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)), 0)
        << "band [" << first << ", " << last << "]";
  }
}

// Runs both block updates at every block size that is a multiple of 4 up to
// 40, over the same A, B and prior C, at 16-byte and at 8-byte alignment, and
// compares C byte for byte; A and B must stay untouched.
template <typename Gen>
void CompareAllBlocks(uint64_t seed, Gen gen) {
  std::mt19937_64 rng(seed);
  int compared = 0;
  for (int block = 4; block <= 40; block += 4) {
    const size_t n = static_cast<size_t>(block) * static_cast<size_t>(block);
    for (const size_t offset : {0, 1}) {
      std::vector<double> a(n + offset);
      std::vector<double> b(n + offset);
      std::vector<double> prior(n + offset);
      for (size_t e = 0; e < n + offset; ++e) {
        a[e] = gen(rng);
        b[e] = gen(rng);
        prior[e] = gen(rng);
      }
      const std::vector<double> a_before = a;
      const std::vector<double> b_before = b;
      std::vector<double> want = prior;
      std::vector<double> got = prior;
      MatmulSubReference(a.data() + offset, b.data() + offset, want.data() + offset, block);
      LuMatmulSub(a.data() + offset, b.data() + offset, got.data() + offset, block);
      const size_t bytes = (n + offset) * sizeof(double);
      ASSERT_EQ(std::memcmp(want.data(), got.data(), bytes), 0)
          << "block " << block << " offset " << offset;
      ASSERT_EQ(std::memcmp(a.data(), a_before.data(), bytes), 0) << "block " << block;
      ASSERT_EQ(std::memcmp(b.data(), b_before.data(), bytes), 0) << "block " << block;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 20);
}

TEST(LuMatmulSub, MatchesIkjLoopOnRandomFiniteValues) {
  CompareAllBlocks(6, RandomValue);
  CompareAllBlocks(7, RandomValue);
}

TEST(LuMatmulSub, MatchesIkjLoopOnSignedZeros) {
  CompareAllBlocks(8, SignedZeroValue);
  CompareAllBlocks(9, [](std::mt19937_64&) { return -0.0; });
}

TEST(LuMatmulSub, RoundsTheProductBeforeTheSubtract) {
  // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60 rounds to 1 + 2^-29, so c - a * b is
  // +0.0 exactly. A fused multiply-subtract would keep the 2^-60 and give
  // -2^-60. Every other product has a +0.0 factor, so every other element
  // stays +0.0.
  const int block = 4;
  std::vector<double> a(block * block, 0.0);
  std::vector<double> b(block * block, 0.0);
  std::vector<double> c(block * block, 0.0);
  a[0] = b[0] = 1.0 + std::ldexp(1.0, -30);
  c[0] = 1.0 + std::ldexp(1.0, -29);
  LuMatmulSub(a.data(), b.data(), c.data(), block);
  for (const double v : c) {
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(v));
  }
}

// Runs both pair loops over the same positions and prior forces, rows
// [first, first + count), and compares f byte for byte and the flop counts.
// The kernel's copy of the positions has NaN outside the molecules
// [first, first + count + n/2) mod n, which it must not read.
void ComparePairRows(const std::vector<double>& pos, const std::vector<double>& prior, int first,
                     int count, double box, double cutoff2) {
  const int n = static_cast<int>(pos.size() / 3);
  std::vector<double> windowed(pos.size(), std::numeric_limits<double>::quiet_NaN());
  for (int w = 0; w < std::min(count + n / 2, n); ++w) {
    const int m = (first + w) % n;
    for (int d = 0; d < 3; ++d) {
      windowed[static_cast<size_t>(m) * 3 + d] = pos[static_cast<size_t>(m) * 3 + d];
    }
  }
  std::vector<double> want = prior;
  std::vector<double> got = prior;
  const int64_t want_flops =
      PairRowsReference(pos.data(), n, first, count, box, cutoff2, want.data());
  const int64_t got_flops =
      WaterPairRows(windowed.data(), n, first, count, box, cutoff2, got.data());
  const std::string where = "n " + std::to_string(n) + " rows [" + std::to_string(first) +
                            ", " + std::to_string(first + count) + ")";
  ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)), 0) << where;
  ASSERT_EQ(got_flops, want_flops) << where;
}

// Every n from 2 to 66, so n/2 is odd and even: all rows from 0, as Verify
// calls the kernel, and each band of n/p rows for every divisor p of n, as
// the node kernels do (their windows wrap). `place` draws a coordinate,
// `prior_gen` a force already in f.
template <typename Place, typename Prior>
void CompareAllPairShapes(uint64_t seed, double box, double cutoff, Place place, Prior prior_gen) {
  std::mt19937_64 rng(seed);
  int compared = 0;
  for (int n = 2; n <= 66; ++n) {
    std::vector<double> pos(static_cast<size_t>(n) * 3);
    std::vector<double> prior(pos.size());
    for (size_t e = 0; e < pos.size(); ++e) {
      pos[e] = place(rng);
      prior[e] = prior_gen(rng);
    }
    for (int p = 1; p <= n; ++p) {
      if (n % p != 0) {
        continue;
      }
      for (int first = 0; first < n; first += n / p) {
        ComparePairRows(pos, prior, first, n / p, box, cutoff * cutoff);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 3630);  // The sum of n's divisors, over n = 2, ..., 66.
}

TEST(WaterPairRows, MatchesPerPairLoopOnRandomPositions) {
  // The app's box and cutoff (cutoff^2 a power of two), and a pair whose
  // cutoff^2 is not, so that r^2 / cutoff^2 differs from r^2 * (1 / cutoff^2).
  // Positions in the box, and spilling half a box past both sides: the app
  // never wraps its positions, so they drift out of the box.
  for (const auto& [box, cutoff] : {std::pair{16.0, 4.0}, std::pair{10.3, 3.3}}) {
    for (const double spill : {0.0, 0.5}) {
      const auto place = [box = box, spill](std::mt19937_64& rng) {
        return std::uniform_real_distribution<double>(-spill * box, (1 + spill) * box)(rng);
      };
      CompareAllPairShapes(10, box, cutoff, place, RandomValue);
      CompareAllPairShapes(11, box, cutoff, place, SignedZeroValue);
    }
  }
}

TEST(WaterPairRows, MatchesPerPairLoopOnLatticePositions) {
  // Whole-number coordinates: coincident molecules, deltas of exactly
  // +-box/2, r^2 exactly cutoff^2, and accepted pairs whose force has a -0.0
  // component (a zero delta times a negative magnitude), over prior forces
  // dense in +-0.0.
  for (const auto& [box, cutoff] : {std::pair{8.0, 3.0}, std::pair{6.0, 2.0}}) {
    const auto place = [box = box](std::mt19937_64& rng) {
      return static_cast<double>(rng() % static_cast<uint64_t>(box));
    };
    CompareAllPairShapes(12, box, cutoff, place, SignedZeroValue);
    CompareAllPairShapes(13, box, cutoff, place, [](std::mt19937_64&) { return -0.0; });
  }
}

// Checks the kernel against the reference on all rows and on rows
// [first, first + count), and returns the kernel's forces for the latter.
std::vector<double> CheckedPairRows(const std::vector<double>& pos,
                                    const std::vector<double>& prior, double box, double cutoff,
                                    int first, int count) {
  const int n = static_cast<int>(pos.size() / 3);
  ComparePairRows(pos, prior, 0, n, box, cutoff * cutoff);
  ComparePairRows(pos, prior, first, count, box, cutoff * cutoff);
  std::vector<double> f = prior;
  WaterPairRows(pos.data(), n, first, count, box, cutoff * cutoff, f.data());
  return f;
}

std::vector<double> Molecules(std::initializer_list<std::vector<double>> molecules) {
  std::vector<double> pos;
  for (const std::vector<double>& m : molecules) {
    pos.insert(pos.end(), m.begin(), m.end());
  }
  return pos;
}

TEST(WaterPairRows, CoincidentMoleculesAreRejected) {
  // r^2 = 0 < 1e-12: no force. Row 0's -0.0 takes the rejected pair's + 0.0
  // and becomes +0.0; molecule 1's -0.0 minus +0.0 stays -0.0.
  const std::vector<double> f = CheckedPairRows(Molecules({{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}}),
                                                std::vector<double>(6, -0.0), 16.0, 4.0, 0, 1);
  for (int d = 0; d < 3; ++d) {
    EXPECT_FALSE(std::signbit(f[d])) << d;
    EXPECT_TRUE(std::signbit(f[3 + d])) << d;
  }
}

TEST(WaterPairRows, DeltasOfExactlyHalfTheBoxKeepTheirSign) {
  // With the cutoff past box/2, pairs at dx = +box/2 and -box/2 are
  // accepted, and neither delta wraps: a wrong wrap flips the force's sign.
  const std::vector<double> f = CheckedPairRows(
      Molecules({{3.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {3.0, 1.5, 1.0}}),
      std::vector<double>(12, 0.0), 4.0, 2.5, 0, 4);
  EXPECT_NE(f[0], 0.0);
}

TEST(WaterPairRows, PairAtExactlyTheCutoffIsRejected) {
  // dx = -4, so r^2 = 16 = cutoff^2: rejected, 18 flops, and molecule 1's
  // -0.0 is left alone (an accepted pair's force here would be -0.0, and
  // -0.0 - -0.0 is +0.0).
  const std::vector<double> pos = Molecules({{1.0, 1.0, 1.0}, {5.0, 1.0, 1.0}});
  const std::vector<double> prior = {1.0, 1.0, 1.0, -0.0, -0.0, -0.0};
  const std::vector<double> f = CheckedPairRows(pos, prior, 16.0, 4.0, 0, 1);
  for (int d = 0; d < 3; ++d) {
    EXPECT_TRUE(std::signbit(f[3 + d])) << d;
  }
  std::vector<double> g = prior;
  EXPECT_EQ(WaterPairRows(pos.data(), 2, 0, 1, 16.0, 16.0, g.data()), 18);
}

TEST(WaterPairRows, RowAccumulatorTakesTheRejectedPairsZero) {
  // `close` sits one unit from `origin` along y, so its force on row 0 has
  // dx = dz = +0.0 and a negative magnitude: fx = fz = -0.0. `far` is
  // beyond the cutoff.
  const std::vector<double> origin = {1.0, 1.0, 1.0};
  const std::vector<double> close = {1.0, 2.0, 1.0};
  const std::vector<double> far = {9.0, 9.0, 9.0};
  // A rejected pair, then the accepted one: -0.0 + 0.0 is +0.0, and
  // +0.0 + -0.0 stays +0.0. Without the + 0.0 it would stay -0.0.
  std::vector<double> f = CheckedPairRows(Molecules({origin, far, close, far}),
                                          std::vector<double>(12, -0.0), 16.0, 4.0, 0, 1);
  EXPECT_FALSE(std::signbit(f[0]));
  EXPECT_FALSE(std::signbit(f[2]));
  // Only the accepted pair (n = 3): -0.0 + -0.0 stays -0.0, and no + 0.0 may
  // come before or after it.
  f = CheckedPairRows(Molecules({origin, close, far}), std::vector<double>(9, -0.0), 16.0, 4.0,
                      0, 1);
  EXPECT_TRUE(std::signbit(f[0]));
  EXPECT_TRUE(std::signbit(f[2]));
  // Only rejected pairs: the -0.0 becomes +0.0 at the row's end.
  f = CheckedPairRows(Molecules({origin, far, far, far}), std::vector<double>(12, -0.0), 16.0,
                      4.0, 0, 1);
  for (int d = 0; d < 3; ++d) {
    EXPECT_FALSE(std::signbit(f[d])) << d;
  }
}

}  // namespace
}  // namespace hlrc
