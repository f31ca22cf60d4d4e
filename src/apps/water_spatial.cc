#include "src/apps/water_spatial.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/apps/md_common.h"
#include "src/common/rng.h"
#include "src/svm/partition.h"

namespace hlrc {
namespace {

constexpr int kLockBase = 300;  // Per-partition cell-directory locks.

}  // namespace

void WaterSpApp::Setup(System& sys) {
  const int64_t arr = static_cast<int64_t>(cfg_.molecules) * 3 * 8;
  pos_ = sys.space().AllocPageAligned(arr);
  vel_ = sys.space().AllocPageAligned(arr);
  frc_ = sys.space().AllocPageAligned(arr);
  cells_ = sys.space().AllocPageAligned(static_cast<int64_t>(NumCells()) * CellInts() * 4);
}

int WaterSpApp::CellOfPos(const double* p) const {
  const double cell_size = cfg_.box / cfg_.cells;
  auto clampc = [this](double v) {
    int c = static_cast<int>(v);
    if (c < 0) {
      c = 0;
    }
    if (c >= cfg_.cells) {
      c = cfg_.cells - 1;
    }
    return c;
  };
  const int cx = clampc(p[0] / cell_size);
  const int cy = clampc(p[1] / cell_size);
  const int cz = clampc(p[2] / cell_size);
  return CellIndex(cx, cy, cz);
}

NodeId WaterSpApp::OwnerOfCell(int cell, int nodes) const {
  return static_cast<NodeId>(static_cast<int64_t>(cell) * nodes / NumCells());
}

void WaterSpApp::InitState(double* pos, double* vel, int32_t* cells) const {
  Rng rng(cfg_.seed);
  std::memset(cells, 0, static_cast<size_t>(NumCells()) * static_cast<size_t>(CellInts()) * 4);
  for (int m = 0; m < cfg_.molecules; ++m) {
    for (int d = 0; d < 3; ++d) {
      pos[m * 3 + d] = rng.NextDouble() * cfg_.box;
      vel[m * 3 + d] = (rng.NextDouble() - 0.5) * 0.1;
    }
    const int c = CellOfPos(&pos[m * 3]);
    int32_t* cell = &cells[static_cast<size_t>(c) * static_cast<size_t>(CellInts())];
    HLRC_CHECK_MSG(cell[0] < cfg_.cell_capacity, "cell %d overflow at init", c);
    cell[1 + cell[0]] = m;
    ++cell[0];
  }
}

Task<void> WaterSpApp::NodeMain(NodeContext& ctx) {
  const int n = cfg_.molecules;
  const int p = ctx.nodes();
  const int me = ctx.id();
  const int C = cfg_.cells;
  const int nc = NumCells();
  const int64_t cell_bytes = CellInts() * 4;
  const double cell_size = cfg_.box / C;
  const double cutoff2 = cell_size * cell_size;
  const int64_t arr3 = static_cast<int64_t>(n) * 3 * 8;

  // Contiguous cell-index ranges per node (the inverse of ContiguousOwner:
  // node me owns cells [ceil(me*nc/p), ceil((me+1)*nc/p) - 1]).
  Band cells_band;
  cells_band.first = static_cast<int>((static_cast<int64_t>(me) * nc + p - 1) / p);
  cells_band.last = static_cast<int>((static_cast<int64_t>(me + 1) * nc + p - 1) / p) - 1;
  const int cfirst = cells_band.first;
  const int clast = cells_band.last;

  if (me == 0) {
    const std::vector<NodeContext::Range> ranges0 = {{pos_, arr3, true},
                         {vel_, arr3, true},
                         {frc_, arr3, true},
                         {cells_, static_cast<int64_t>(nc) * cell_bytes, true}};
    co_await ctx.Access(ranges0);
    InitState(ctx.Ptr<double>(pos_), ctx.Ptr<double>(vel_), ctx.Ptr<int32_t>(cells_));
    std::memset(ctx.Ptr<double>(frc_), 0, static_cast<size_t>(arr3));
    co_await ctx.ComputeFlops(10ll * n);
  }
  co_await ctx.Barrier(0);

  for (int step = 0; step < cfg_.steps; ++step) {
    // ---- Force phase: for each molecule in an owned cell, sum interactions
    // with molecules in the 27 surrounding cells (one-sided accumulation, so
    // no remote force writes). Boundary cells and the positions of the
    // molecules in them come from neighbor partitions.
    int64_t flops = 0;
    for (int c = cfirst; c <= clast; ++c) {
      co_await ctx.Read(CellAddr(c), cell_bytes);
      const int32_t* cell = ctx.Ptr<int32_t>(CellAddr(c));
      const int count = cell[0];
      if (count == 0) {
        continue;
      }
      const int cx = c % C;
      const int cy = (c / C) % C;
      const int cz = c / (C * C);

      // Gather neighbor cells (with wrap-around), reading as needed.
      std::vector<int> nbr_mols;
      for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int c2 = CellIndex((cx + dx + C) % C, (cy + dy + C) % C, (cz + dz + C) % C);
            co_await ctx.Read(CellAddr(c2), cell_bytes);
            const int32_t* cell2 = ctx.Ptr<int32_t>(CellAddr(c2));
            for (int k = 0; k < cell2[0]; ++k) {
              nbr_mols.push_back(cell2[1 + k]);
            }
          }
        }
      }
      std::sort(nbr_mols.begin(), nbr_mols.end());
      nbr_mols.erase(std::unique(nbr_mols.begin(), nbr_mols.end()), nbr_mols.end());
      for (int m2 : nbr_mols) {
        if (ctx.NeedsAccess(pos_ + static_cast<GlobalAddr>(m2) * 24, 24, false)) {
          co_await ctx.Read(pos_ + static_cast<GlobalAddr>(m2) * 24, 24);
        }
      }

      const double* pos = ctx.Ptr<double>(pos_);
      for (int k = 0; k < count; ++k) {
        const int m = cell[1 + k];
        double sx = 0;
        double sy = 0;
        double sz = 0;
        for (int m2 : nbr_mols) {
          if (m2 == m) {
            continue;
          }
          double fx = 0;
          double fy = 0;
          double fz = 0;
          flops += md::PairForce(pos, m, m2, cfg_.box, cutoff2, &fx, &fy, &fz) + 3;
          sx += fx;
          sy += fy;
          sz += fz;
        }
        co_await ctx.Write(frc_ + static_cast<GlobalAddr>(m) * 24, 24);
        double* frc = ctx.Ptr<double>(frc_);
        frc[m * 3 + 0] = sx;
        frc[m * 3 + 1] = sy;
        frc[m * 3 + 2] = sz;
      }
    }
    co_await ctx.ComputeFlops(flops);
    co_await ctx.Barrier(1);

    // ---- Update phase: integrate the molecules of owned cells and collect
    // migrations. Cell lists are not mutated here; migrations apply in their
    // own barrier-separated phase so no node reads a list while another
    // inserts into it.
    struct Move {
      int mol;
      int from;
      int to;
    };
    std::vector<Move> moves;
    for (int c = cfirst; c <= clast; ++c) {
      const int32_t* cell = ctx.Ptr<int32_t>(CellAddr(c));
      for (int k = 0; k < cell[0]; ++k) {
        const int m = cell[1 + k];
        const std::vector<NodeContext::Range> ranges1 = {{frc_ + static_cast<GlobalAddr>(m) * 24, 24, false},
                             {pos_ + static_cast<GlobalAddr>(m) * 24, 24, true},
                             {vel_ + static_cast<GlobalAddr>(m) * 24, 24, true}};
        co_await ctx.Access(ranges1);
        double* pos = ctx.Ptr<double>(pos_);
        double* vel = ctx.Ptr<double>(vel_);
        const double* frc = ctx.Ptr<double>(frc_);
        for (int d = 0; d < 3; ++d) {
          vel[m * 3 + d] += frc[m * 3 + d] * cfg_.dt;
          double x = pos[m * 3 + d] + vel[m * 3 + d] * cfg_.dt;
          if (x < 0) {
            x += cfg_.box;
          }
          if (x >= cfg_.box) {
            x -= cfg_.box;
          }
          pos[m * 3 + d] = x;
        }
        last_writer_[static_cast<size_t>(m)] = me;
        const int c2 = CellOfPos(&pos[m * 3]);
        if (c2 != c) {
          moves.push_back(Move{m, c, c2});
        }
      }
    }
    co_await ctx.ComputeFlops(15ll * (clast - cfirst + 1));
    co_await ctx.Barrier(2);

    // ---- Migration phase. All cell-list mutations take the owning
    // partition's lock; molecules migrate slowly so this is infrequent
    // (paper §4.1).
    std::sort(moves.begin(), moves.end(), [this, p](const Move& a, const Move& b) {
      return OwnerOfCell(a.to, p) < OwnerOfCell(b.to, p);
    });
    if (!moves.empty()) {
      // Removals (all in the own partition).
      co_await ctx.Lock(kLockBase + me);
      for (const Move& mv : moves) {
        co_await ctx.Write(CellAddr(mv.from), cell_bytes);
        int32_t* cell = ctx.Ptr<int32_t>(CellAddr(mv.from));
        for (int k = 0; k < cell[0]; ++k) {
          if (cell[1 + k] == mv.mol) {
            cell[1 + k] = cell[cell[0]];  // Swap with last.
            --cell[0];
            break;
          }
        }
      }
      co_await ctx.Unlock(kLockBase + me);
      // Insertions, grouped by target partition.
      size_t i = 0;
      while (i < moves.size()) {
        const NodeId owner = OwnerOfCell(moves[i].to, p);
        co_await ctx.Lock(kLockBase + owner);
        while (i < moves.size() && OwnerOfCell(moves[i].to, p) == owner) {
          co_await ctx.Write(CellAddr(moves[i].to), cell_bytes);
          int32_t* cell = ctx.Ptr<int32_t>(CellAddr(moves[i].to));
          HLRC_CHECK_MSG(cell[0] < cfg_.cell_capacity, "cell %d overflow", moves[i].to);
          cell[1 + cell[0]] = moves[i].mol;
          ++cell[0];
          ++i;
        }
        co_await ctx.Unlock(kLockBase + owner);
      }
    }
    co_await ctx.Barrier(3);
  }
}

System::Program WaterSpApp::Program() {
  last_writer_.assign(static_cast<size_t>(cfg_.molecules), 0);
  return [this](NodeContext& ctx) -> Task<void> { return NodeMain(ctx); };
}

void WaterSpApp::ReferenceStep(std::vector<double>* pos, std::vector<double>* vel,
                               std::vector<std::vector<int>>* cells) const {
  const int n = cfg_.molecules;
  const int C = cfg_.cells;
  const double cell_size = cfg_.box / C;
  const double cutoff2 = cell_size * cell_size;
  std::vector<double> frc(static_cast<size_t>(n) * 3, 0.0);

  for (int c = 0; c < NumCells(); ++c) {
    const int cx = c % C;
    const int cy = (c / C) % C;
    const int cz = c / (C * C);
    std::vector<int> nbr;
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int c2 = CellIndex((cx + dx + C) % C, (cy + dy + C) % C, (cz + dz + C) % C);
          for (int m2 : (*cells)[static_cast<size_t>(c2)]) {
            nbr.push_back(m2);
          }
        }
      }
    }
    std::sort(nbr.begin(), nbr.end());
    nbr.erase(std::unique(nbr.begin(), nbr.end()), nbr.end());
    for (int m : (*cells)[static_cast<size_t>(c)]) {
      double sx = 0;
      double sy = 0;
      double sz = 0;
      for (int m2 : nbr) {
        if (m2 == m) {
          continue;
        }
        double fx = 0;
        double fy = 0;
        double fz = 0;
        md::PairForce(pos->data(), m, m2, cfg_.box, cutoff2, &fx, &fy, &fz);
        sx += fx;
        sy += fy;
        sz += fz;
      }
      frc[static_cast<size_t>(m) * 3 + 0] = sx;
      frc[static_cast<size_t>(m) * 3 + 1] = sy;
      frc[static_cast<size_t>(m) * 3 + 2] = sz;
    }
  }

  std::vector<std::vector<int>> next(static_cast<size_t>(NumCells()));
  for (int c = 0; c < NumCells(); ++c) {
    for (int m : (*cells)[static_cast<size_t>(c)]) {
      for (int d = 0; d < 3; ++d) {
        (*vel)[static_cast<size_t>(m) * 3 + d] += frc[static_cast<size_t>(m) * 3 + d] * cfg_.dt;
        double x = (*pos)[static_cast<size_t>(m) * 3 + d] +
                   (*vel)[static_cast<size_t>(m) * 3 + d] * cfg_.dt;
        if (x < 0) {
          x += cfg_.box;
        }
        if (x >= cfg_.box) {
          x -= cfg_.box;
        }
        (*pos)[static_cast<size_t>(m) * 3 + d] = x;
      }
      next[static_cast<size_t>(CellOfPos(&(*pos)[static_cast<size_t>(m) * 3]))].push_back(m);
    }
  }
  *cells = std::move(next);
}

bool WaterSpApp::Verify(System& sys, std::string* why) {
  const int n = cfg_.molecules;
  if (ref_pos_.empty()) {
    ref_pos_.resize(static_cast<size_t>(n) * 3);
    ref_vel_.resize(static_cast<size_t>(n) * 3);
    std::vector<int32_t> cells_flat(static_cast<size_t>(NumCells()) *
                                    static_cast<size_t>(CellInts()));
    InitState(ref_pos_.data(), ref_vel_.data(), cells_flat.data());
    std::vector<std::vector<int>> cells(static_cast<size_t>(NumCells()));
    for (int c = 0; c < NumCells(); ++c) {
      const int32_t* cell = &cells_flat[static_cast<size_t>(c) * static_cast<size_t>(CellInts())];
      for (int k = 0; k < cell[0]; ++k) {
        cells[static_cast<size_t>(c)].push_back(cell[1 + k]);
      }
    }
    for (int step = 0; step < cfg_.steps; ++step) {
      ReferenceStep(&ref_pos_, &ref_vel_, &cells);
    }
  }

  for (int m = 0; m < n; ++m) {
    const NodeId node = last_writer_[static_cast<size_t>(m)];
    const double* pos = reinterpret_cast<const double*>(
        sys.NodeMemory(node, pos_ + static_cast<GlobalAddr>(m) * 24));
    for (int d = 0; d < 3; ++d) {
      const double want = ref_pos_[static_cast<size_t>(m) * 3 + static_cast<size_t>(d)];
      if (std::fabs(pos[d] - want) > 1e-7 || !std::isfinite(pos[d])) {
        if (why != nullptr) {
          *why = "Water-Spatial: position of molecule " + std::to_string(m) + ", dim " +
                 std::to_string(d) + ": " + GotWant(pos[d], want);
        }
        return false;
      }
    }
  }
  return true;
}

namespace {
const AppRegistrar kWaterSpRegistrar("water-sp",
                                     [](AppScale scale, std::optional<uint64_t> seed) {
                                       WaterSpConfig cfg;
                                       switch (scale) {
                                         case AppScale::kTiny:
                                           cfg.molecules = 128;
                                           cfg.cells = 4;
                                           cfg.steps = 2;
                                           cfg.box = 8.0;
                                           break;
                                         case AppScale::kDefault:
                                           // Density ~8 molecules/cell: enough pair work per
                                           // step for the paper's compute:communication regime.
                                           cfg.molecules = 4096;
                                           cfg.cells = 8;
                                           cfg.steps = 3;
                                           break;
                                         case AppScale::kPaper:
                                           cfg.molecules = 4096;
                                           cfg.cells = 16;
                                           cfg.steps = 3;
                                           cfg.box = 32.0;
                                           break;
                                       }
                                       if (seed) {
                                         cfg.seed = *seed;
                                       }
                                       return std::make_unique<WaterSpApp>(cfg);
                                     });
}  // namespace

}  // namespace hlrc
