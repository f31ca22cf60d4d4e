#include "src/apps/sor.h"

#include <cstddef>
#include <cstring>

#include "src/common/rng.h"
#include "src/svm/partition.h"

namespace hlrc {
namespace {

// One row of the sweep; `up` and `down` are the neighbouring rows, null past
// the grid's edge. The edge columns are peeled, so the interior loop has no
// branch and vectorizes. A missing neighbour stays a literal 0.0 operand:
// 0.0 + -0.0 is +0.0, so dropping the add would change bits.
template <bool kHasUp, bool kHasDown>
void SweepRow(double* out, const double* up, const double* row, const double* down, int cols) {
  const auto vertical = [up, down](int j) {
    return (kHasUp ? up[j] : 0.0) + (kHasDown ? down[j] : 0.0);
  };
  if (cols == 1) {
    out[0] = 0.25 * (vertical(0) + 0.0 + 0.0);
    return;
  }
  out[0] = 0.25 * (vertical(0) + 0.0 + row[1]);
  for (int j = 1; j < cols - 1; ++j) {
    out[j] = 0.25 * (vertical(j) + row[j - 1] + row[j + 1]);
  }
  out[cols - 1] = 0.25 * (vertical(cols - 1) + row[cols - 2] + 0.0);
}

}  // namespace

void SorSweepRows(double* dst, const double* src, int cols, int first, int last, int rows) {
  for (int i = first; i <= last; ++i) {
    const ptrdiff_t at = static_cast<ptrdiff_t>(i) * cols;
    const double* up = i > 0 ? src + at - cols : nullptr;
    const double* down = i < rows - 1 ? src + at + cols : nullptr;
    if (up != nullptr && down != nullptr) {
      SweepRow<true, true>(dst + at, up, src + at, down, cols);
    } else if (up != nullptr) {
      SweepRow<true, false>(dst + at, up, src + at, down, cols);
    } else if (down != nullptr) {
      SweepRow<false, true>(dst + at, up, src + at, down, cols);
    } else {
      SweepRow<false, false>(dst + at, up, src + at, down, cols);
    }
  }
}

void SorApp::Setup(System& sys) {
  const int64_t bytes = static_cast<int64_t>(cfg_.rows) * cfg_.cols * 8;
  red_ = sys.space().AllocPageAligned(bytes);
  black_ = sys.space().AllocPageAligned(bytes);
}

GlobalAddr SorApp::RowAddr(GlobalAddr base, int row) const {
  return base + static_cast<GlobalAddr>(row) * static_cast<GlobalAddr>(cfg_.cols) * 8;
}

void SorApp::BandOf(int rows, int nodes, NodeId id, int* first, int* last) {
  const Band band = hlrc::BandOf(rows, nodes, id);
  *first = band.first;
  *last = band.last;
}

void SorApp::InitRow(double* row_red, double* row_black, int row) const {
  if (cfg_.zero_interior) {
    // Paper §4.8: zeros except at the edges. The interior stays zero for many
    // iterations, so early writes change nothing and produce no diffs.
    const double edge = (row == 0 || row == cfg_.rows - 1) ? 1.0 : 0.0;
    for (int j = 0; j < cfg_.cols; ++j) {
      row_red[j] = row_black[j] = edge;
    }
  } else {
    // Per-row seeding so each node can initialize its own band (the home
    // effect requires owners to write their own partitions).
    Rng rng(cfg_.seed + static_cast<uint64_t>(row) * 2654435761u);
    for (int j = 0; j < cfg_.cols; ++j) {
      row_red[j] = rng.NextDouble();
    }
    for (int j = 0; j < cfg_.cols; ++j) {
      row_black[j] = rng.NextDouble();
    }
  }
}

Task<void> SorApp::NodeMain(NodeContext& ctx) {
  const int64_t row_bytes = static_cast<int64_t>(cfg_.cols) * 8;
  int first = 0;
  int last = 0;
  BandOf(cfg_.rows, ctx.nodes(), ctx.id(), &first, &last);
  const int band_rows = last - first + 1;

  // Distributed initialization: every node initializes its own band, so the
  // writer of each page is its home under block placement.
  {
    const std::vector<NodeContext::Range> ranges0 = {
        {RowAddr(red_, first), band_rows * row_bytes, true},
        {RowAddr(black_, first), band_rows * row_bytes, true}};
    co_await ctx.Access(ranges0);
    for (int i = first; i <= last; ++i) {
      InitRow(ctx.Ptr<double>(RowAddr(red_, i)), ctx.Ptr<double>(RowAddr(black_, i)), i);
    }
    co_await ctx.ComputeFlops(2ll * band_rows * cfg_.cols);
  }
  co_await ctx.Barrier(0);

  for (int iter = 0; iter < cfg_.iterations; ++iter) {
    // Red sweep reads black rows [first-1, last+1].
    {
      const int rfirst = std::max(first - 1, 0);
      const int rlast = std::min(last + 1, cfg_.rows - 1);
      const std::vector<NodeContext::Range> ranges1 = {{RowAddr(black_, rfirst), (rlast - rfirst + 1) * row_bytes, false},
                           {RowAddr(red_, first), band_rows * row_bytes, true}};
      co_await ctx.Access(ranges1);
      SorSweepRows(ctx.Ptr<double>(red_), ctx.Ptr<double>(black_), cfg_.cols, first, last,
                   cfg_.rows);
      co_await ctx.ComputeFlops(4ll * band_rows * cfg_.cols);
    }
    co_await ctx.Barrier(1);
    // Black sweep reads red rows [first-1, last+1].
    {
      const int rfirst = std::max(first - 1, 0);
      const int rlast = std::min(last + 1, cfg_.rows - 1);
      const std::vector<NodeContext::Range> ranges2 = {{RowAddr(red_, rfirst), (rlast - rfirst + 1) * row_bytes, false},
                           {RowAddr(black_, first), band_rows * row_bytes, true}};
      co_await ctx.Access(ranges2);
      SorSweepRows(ctx.Ptr<double>(black_), ctx.Ptr<double>(red_), cfg_.cols, first, last,
                   cfg_.rows);
      co_await ctx.ComputeFlops(4ll * band_rows * cfg_.cols);
    }
    co_await ctx.Barrier(2);
  }
}

System::Program SorApp::Program() {
  return [this](NodeContext& ctx) -> Task<void> { return NodeMain(ctx); };
}

bool SorApp::Verify(System& sys, std::string* why) {
  const size_t total = static_cast<size_t>(cfg_.rows) * static_cast<size_t>(cfg_.cols);
  if (ref_red_.empty()) {
    ref_red_.resize(total);
    ref_black_.resize(total);
    for (int i = 0; i < cfg_.rows; ++i) {
      InitRow(&ref_red_[static_cast<size_t>(i) * static_cast<size_t>(cfg_.cols)],
              &ref_black_[static_cast<size_t>(i) * static_cast<size_t>(cfg_.cols)], i);
    }
    for (int iter = 0; iter < cfg_.iterations; ++iter) {
      SorSweepRows(ref_red_.data(), ref_black_.data(), cfg_.cols, 0, cfg_.rows - 1, cfg_.rows);
      SorSweepRows(ref_black_.data(), ref_red_.data(), cfg_.cols, 0, cfg_.rows - 1, cfg_.rows);
    }
  }

  // Each band's final rows live at their owner.
  for (NodeId n = 0; n < sys.config().nodes; ++n) {
    int first = 0;
    int last = 0;
    BandOf(cfg_.rows, sys.config().nodes, n, &first, &last);
    const double* red = reinterpret_cast<const double*>(sys.NodeMemory(n, RowAddr(red_, first)));
    const double* black =
        reinterpret_cast<const double*>(sys.NodeMemory(n, RowAddr(black_, first)));
    for (int i = 0; i <= last - first; ++i) {
      for (int j = 0; j < cfg_.cols; ++j) {
        const size_t ref_idx =
            (static_cast<size_t>(first + i)) * static_cast<size_t>(cfg_.cols) +
            static_cast<size_t>(j);
        if (red[i * cfg_.cols + j] != ref_red_[ref_idx] ||
            black[i * cfg_.cols + j] != ref_black_[ref_idx]) {
          if (why != nullptr) {
            *why = "SOR: node " + std::to_string(n) + " row " + std::to_string(first + i) +
                   " col " + std::to_string(j) + " mismatch";
          }
          return false;
        }
      }
    }
  }
  return true;
}

namespace {
const AppRegistrar kSorRegistrar("sor", [](AppScale scale, std::optional<uint64_t> seed) {
  SorConfig cfg;
  switch (scale) {
    case AppScale::kTiny:
      cfg.rows = 128;
      cfg.cols = 128;
      cfg.iterations = 4;
      break;
    case AppScale::kDefault:
      cfg.rows = 2048;
      cfg.cols = 1024;
      cfg.iterations = 20;
      break;
    case AppScale::kPaper:
      cfg.rows = 2048;
      cfg.cols = 2048;
      cfg.iterations = 51;
      break;
  }
  if (seed) {
    cfg.seed = *seed;
  }
  return std::make_unique<SorApp>(cfg);
});
}  // namespace

}  // namespace hlrc
