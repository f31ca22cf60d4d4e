#include "src/apps/lu.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/rng.h"
#include "src/svm/partition.h"

namespace hlrc {
namespace {

// Block kernels (row-major, B x B). These run for real on the shared pages;
// the virtual-time cost is charged separately via ComputeFlops.

void FactorDiag(double* d, int b) {
  for (int k = 0; k < b; ++k) {
    for (int i = k + 1; i < b; ++i) {
      d[i * b + k] /= d[k * b + k];
      for (int j = k + 1; j < b; ++j) {
        d[i * b + j] -= d[i * b + k] * d[k * b + j];
      }
    }
  }
}

// A := L^{-1} A where L is the unit lower triangle of the factored diagonal.
void SolveRowBlock(const double* diag, double* a, int b) {
  for (int k = 0; k < b; ++k) {
    for (int i = k + 1; i < b; ++i) {
      const double l = diag[i * b + k];
      for (int j = 0; j < b; ++j) {
        a[i * b + j] -= l * a[k * b + j];
      }
    }
  }
}

// A := A U^{-1} where U is the upper triangle of the factored diagonal.
void SolveColBlock(const double* diag, double* a, int b) {
  for (int j = 0; j < b; ++j) {
    const double inv = 1.0 / diag[j * b + j];
    for (int i = 0; i < b; ++i) {
      a[i * b + j] *= inv;
    }
    for (int j2 = j + 1; j2 < b; ++j2) {
      const double u = diag[j * b + j2];
      for (int i = 0; i < b; ++i) {
        a[i * b + j2] -= a[i * b + j] * u;
      }
    }
  }
}

// Position-seeded initial value: lets each node initialize its own blocks
// (distributed init preserves the home effect) while the sequential
// reference reproduces the exact same matrix.
double InitValue(uint64_t seed, int i, int j, int n) {
  Rng rng(seed ^ (static_cast<uint64_t>(i) * 0x9e3779b1u + static_cast<uint64_t>(j)));
  double v = rng.NextDouble() - 0.5;
  if (i == j) {
    v += n;  // Diagonally dominant: no pivoting needed.
  }
  return v;
}

}  // namespace

// A 4 x 4 tile of C stays in eight two-lane accumulators for the whole k
// loop, loaded and stored once. Per k, row r of the tile broadcasts
// a[i + r][k] and multiplies it by the two vectors of b[k][j..j + 3]. A packed
// multiply or subtract rounds each lane as the scalar one does, and the build
// enables no FMA, so each element sees the i-k-j loop's operations in its
// order. The unroll pragma keeps the accumulators in registers at -O2 too.
void LuMatmulSub(const double* a, const double* b, double* c, int block) {
  using V2 = double __attribute__((vector_size(16)));
  for (int i = 0; i < block; i += 4) {
    for (int j = 0; j < block; j += 4) {
      V2 acc[4][2];
      for (int r = 0; r < 4; ++r) {
        std::memcpy(acc[r], c + (i + r) * block + j, sizeof acc[r]);
      }
      for (int k = 0; k < block; ++k) {
        V2 bk[2];
        std::memcpy(bk, b + k * block + j, sizeof bk);
#pragma GCC unroll 4
        for (int r = 0; r < 4; ++r) {
          const double av = a[(i + r) * block + k];
          const V2 ar = {av, av};
          acc[r][0] -= ar * bk[0];
          acc[r][1] -= ar * bk[1];
        }
      }
      for (int r = 0; r < 4; ++r) {
        std::memcpy(c + (i + r) * block + j, acc[r], sizeof acc[r]);
      }
    }
  }
}

void LuApp::Setup(System& sys) {
  HLRC_CHECK(cfg_.n % cfg_.block == 0);
  HLRC_CHECK(cfg_.block % 4 == 0);  // LuMatmulSub's 4 x 4 tiles.
  block_bytes_ = static_cast<int64_t>(cfg_.block) * cfg_.block * 8;
  matrix_ = sys.space().AllocPageAligned(static_cast<int64_t>(cfg_.n) * cfg_.n * 8);
}

GlobalAddr LuApp::BlockAddr(int bi, int bj) const {
  return matrix_ + static_cast<GlobalAddr>((bi * nb() + bj)) *
                       static_cast<GlobalAddr>(block_bytes_);
}

NodeId LuApp::OwnerOf(int bi, int bj, int nodes) const {
  // Contiguous chunks of blocks per node, as in the paper (§4.1): "the matrix
  // is decomposed in contiguous blocks that are distributed to processors in
  // contiguous chunks". This aligns writers with block-policy homes (the
  // "home effect": HLRC creates no diffs for LU) at the cost of the inherent
  // computational imbalance the paper points out.
  return ContiguousOwner(bi * nb() + bj, static_cast<int64_t>(nb()) * nb(), nodes);
}

Task<void> LuApp::NodeMain(NodeContext& ctx) {
  const int P = ctx.nodes();
  const int B = cfg_.block;
  const int NB = nb();
  const int64_t bb = block_bytes_;
  const int64_t b3 = static_cast<int64_t>(B) * B * B;

  // Distributed initialization: every node fills its own blocks, so writers
  // coincide with block-policy homes (the paper's home effect for LU).
  int64_t my_elems = 0;
  for (int bi = 0; bi < NB; ++bi) {
    for (int bj = 0; bj < NB; ++bj) {
      if (OwnerOf(bi, bj, P) != ctx.id()) {
        continue;
      }
      co_await ctx.Write(BlockAddr(bi, bj), bb);
      double* blk = ctx.Ptr<double>(BlockAddr(bi, bj));
      for (int i = 0; i < B; ++i) {
        for (int j = 0; j < B; ++j) {
          blk[i * B + j] = InitValue(cfg_.seed, bi * B + i, bj * B + j, cfg_.n);
        }
      }
      my_elems += B * B;
    }
  }
  co_await ctx.ComputeFlops(my_elems);
  co_await ctx.Barrier(0);

  for (int k = 0; k < NB; ++k) {
    if (OwnerOf(k, k, P) == ctx.id()) {
      co_await ctx.Write(BlockAddr(k, k), bb);
      FactorDiag(ctx.Ptr<double>(BlockAddr(k, k)), B);
      co_await ctx.ComputeFlops(2 * b3 / 3);
    }
    co_await ctx.Barrier(1);

    for (int i = k + 1; i < NB; ++i) {
      if (OwnerOf(i, k, P) == ctx.id()) {
        co_await ctx.Read(BlockAddr(k, k), bb);
        co_await ctx.Write(BlockAddr(i, k), bb);
        SolveColBlock(ctx.Ptr<double>(BlockAddr(k, k)), ctx.Ptr<double>(BlockAddr(i, k)), B);
        co_await ctx.ComputeFlops(b3);
      }
      if (OwnerOf(k, i, P) == ctx.id()) {
        co_await ctx.Read(BlockAddr(k, k), bb);
        co_await ctx.Write(BlockAddr(k, i), bb);
        SolveRowBlock(ctx.Ptr<double>(BlockAddr(k, k)), ctx.Ptr<double>(BlockAddr(k, i)), B);
        co_await ctx.ComputeFlops(b3);
      }
    }
    co_await ctx.Barrier(2);

    for (int i = k + 1; i < NB; ++i) {
      for (int j = k + 1; j < NB; ++j) {
        if (OwnerOf(i, j, P) == ctx.id()) {
          co_await ctx.Read(BlockAddr(i, k), bb);
          co_await ctx.Read(BlockAddr(k, j), bb);
          co_await ctx.Write(BlockAddr(i, j), bb);
          LuMatmulSub(ctx.Ptr<double>(BlockAddr(i, k)), ctx.Ptr<double>(BlockAddr(k, j)),
                      ctx.Ptr<double>(BlockAddr(i, j)), B);
          co_await ctx.ComputeFlops(2 * b3);
        }
      }
    }
    co_await ctx.Barrier(3);
  }
}

System::Program LuApp::Program() {
  return [this](NodeContext& ctx) -> Task<void> { return NodeMain(ctx); };
}

int64_t LuApp::TotalFlops() const {
  const double n = cfg_.n;
  return static_cast<int64_t>(2.0 / 3.0 * n * n * n);
}

bool LuApp::Verify(System& sys, std::string* why) {
  const int B = cfg_.block;
  const int NB = nb();
  const int P = sys.config().nodes;

  if (reference_.empty()) {
    // Sequential reference: the same blocked algorithm in the same per-block
    // operation order, so results match bitwise.
    reference_.assign(static_cast<size_t>(cfg_.n) * cfg_.n, 0);
    auto blk = [&](int bi, int bj) {
      return &reference_[static_cast<size_t>((bi * NB + bj)) * static_cast<size_t>(B * B)];
    };
    for (int bi = 0; bi < NB; ++bi) {
      for (int bj = 0; bj < NB; ++bj) {
        for (int i = 0; i < B; ++i) {
          for (int j = 0; j < B; ++j) {
            blk(bi, bj)[i * B + j] = InitValue(cfg_.seed, bi * B + i, bj * B + j, cfg_.n);
          }
        }
      }
    }
    for (int k = 0; k < NB; ++k) {
      FactorDiag(blk(k, k), B);
      for (int i = k + 1; i < NB; ++i) {
        SolveColBlock(blk(k, k), blk(i, k), B);
        SolveRowBlock(blk(k, k), blk(k, i), B);
      }
      for (int i = k + 1; i < NB; ++i) {
        for (int j = k + 1; j < NB; ++j) {
          LuMatmulSub(blk(i, k), blk(k, j), blk(i, j), B);
        }
      }
    }
  }

  // Each block's final value lives at its owner.
  for (int bi = 0; bi < NB; ++bi) {
    for (int bj = 0; bj < NB; ++bj) {
      const NodeId owner = OwnerOf(bi, bj, P);
      const double* got =
          reinterpret_cast<const double*>(sys.NodeMemory(owner, BlockAddr(bi, bj)));
      const double* want =
          &reference_[static_cast<size_t>((bi * NB + bj)) * static_cast<size_t>(B * B)];
      for (int e = 0; e < B * B; ++e) {
        if (got[e] != want[e]) {
          if (why != nullptr) {
            // 17 significant digits tell any two doubles apart.
            char values[80];
            std::snprintf(values, sizeof values, "got %.17g want %.17g", got[e], want[e]);
            *why = "LU: block (" + std::to_string(bi) + "," + std::to_string(bj) +
                   ") element " + std::to_string(e) + " mismatch: " + values;
          }
          return false;
        }
      }
    }
  }
  return true;
}

namespace {
const AppRegistrar kLuRegistrar("lu", [](AppScale scale, std::optional<uint64_t> seed) {
  LuConfig cfg;
  switch (scale) {
    case AppScale::kTiny:
      cfg.n = 128;
      cfg.block = 16;
      break;
    case AppScale::kDefault:
      cfg.n = 1024;
      cfg.block = 32;
      break;
    case AppScale::kPaper:
      cfg.n = 2048;
      cfg.block = 32;
      break;
  }
  if (seed) {
    cfg.seed = *seed;
  }
  return std::make_unique<LuApp>(cfg);
});
}  // namespace

}  // namespace hlrc
