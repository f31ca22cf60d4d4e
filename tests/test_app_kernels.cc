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
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "src/apps/lu.h"
#include "src/apps/sor.h"

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

}  // namespace
}  // namespace hlrc
