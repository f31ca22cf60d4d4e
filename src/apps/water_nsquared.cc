#include "src/apps/water_nsquared.h"

#include <cmath>
#include <cstring>

#include "src/apps/md_common.h"
#include "src/common/rng.h"

namespace hlrc {
namespace {

constexpr int kLockBase = 100;  // Per-partition force locks.

}  // namespace

void WaterNsqApp::Setup(System& sys) {
  HLRC_CHECK(ConfigError(sys.config()).empty());
  const int64_t arr = static_cast<int64_t>(cfg_.molecules) * 3 * 8;
  pos_ = sys.space().AllocPageAligned(arr);
  vel_ = sys.space().AllocPageAligned(arr);
  frc_ = sys.space().AllocPageAligned(arr);
}

void WaterNsqApp::InitMolecules(double* pos, double* vel) const {
  Rng rng(cfg_.seed);
  for (int m = 0; m < cfg_.molecules; ++m) {
    for (int d = 0; d < 3; ++d) {
      pos[m * 3 + d] = rng.NextDouble() * cfg_.box;
      vel[m * 3 + d] = (rng.NextDouble() - 0.5) * 0.1;
    }
  }
}

int64_t WaterNsqApp::PairForce(const double* pos, int i, int j, double box, double cutoff2,
                               double* fx, double* fy, double* fz) {
  return md::PairForce(pos, i, j, box, cutoff2, fx, fy, fz);
}

std::string WaterNsqApp::ConfigError(const SimConfig& config) const {
  if (cfg_.molecules % config.nodes == 0) {
    return "";
  }
  return "--nodes=" + std::to_string(config.nodes) + ": expected a divisor of " +
         std::to_string(cfg_.molecules) + " for " + name() + " (an equal share of its " +
         std::to_string(cfg_.molecules) + " molecules per node at this scale)";
}

Task<void> WaterNsqApp::NodeMain(NodeContext& ctx) {
  const int n = cfg_.molecules;
  const int p = ctx.nodes();
  const int per = n / p;
  const int me = ctx.id();
  const int first = me * per;
  const int64_t arr3 = static_cast<int64_t>(n) * 3 * 8;
  const int64_t band = static_cast<int64_t>(per) * 3 * 8;
  const GlobalAddr my_pos = pos_ + static_cast<GlobalAddr>(first) * 24;
  const GlobalAddr my_vel = vel_ + static_cast<GlobalAddr>(first) * 24;
  const GlobalAddr my_frc = frc_ + static_cast<GlobalAddr>(first) * 24;
  const double cutoff2 = cfg_.cutoff * cfg_.cutoff;
  const int half = n / 2;

  if (me == 0) {
    const std::vector<NodeContext::Range> ranges0 = {{pos_, arr3, true}, {vel_, arr3, true}, {frc_, arr3, true}};
    co_await ctx.Access(ranges0);
    InitMolecules(ctx.Ptr<double>(pos_), ctx.Ptr<double>(vel_));
    std::memset(ctx.Ptr<double>(frc_), 0, static_cast<size_t>(arr3));
    co_await ctx.ComputeFlops(6ll * n);
  }
  co_await ctx.Barrier(0);

  std::vector<double> local_f(static_cast<size_t>(n) * 3);
  for (int step = 0; step < cfg_.steps; ++step) {
    ctx.SnapshotPhase(step * 2);
    // Phase 1: predict own positions, clear own forces. One atomic grant:
    // the stores below interleave across both arrays.
    const std::vector<NodeContext::Range> ranges1 = {{my_vel, band, false}, {my_pos, band, true}, {my_frc, band, true}};
    co_await ctx.Access(ranges1);
    {
      double* pos = ctx.Ptr<double>(pos_);
      const double* vel = ctx.Ptr<double>(vel_);
      double* frc = ctx.Ptr<double>(frc_);
      for (int m = first; m < first + per; ++m) {
        for (int d = 0; d < 3; ++d) {
          pos[m * 3 + d] += vel[m * 3 + d] * cfg_.dt;
          frc[m * 3 + d] = 0;
        }
      }
    }
    co_await ctx.ComputeFlops(6ll * per);
    co_await ctx.Barrier(1);
    ctx.SnapshotPhase(step * 2 + 1);

    // Phase 2: pair forces. Molecule i interacts with the following n/2
    // molecules (wrapping), accumulated both-sided into a private buffer.
    // The positions needed are [first, first+per+half) mod n.
    {
      // Positions needed: molecules [first, first + per + half) mod n.
      const int need = std::min(per + half, n);
      const int straight = std::min(need, n - first);
      co_await ctx.Read(pos_ + static_cast<GlobalAddr>(first) * 24,
                        static_cast<int64_t>(straight) * 24);
      if (need > straight) {
        co_await ctx.Read(pos_, static_cast<int64_t>(need - straight) * 24);
      }

      std::fill(local_f.begin(), local_f.end(), 0.0);
      const double* pos = ctx.Ptr<double>(pos_);
      int64_t flops = 0;
      for (int i = first; i < first + per; ++i) {
        for (int off = 1; off <= half; ++off) {
          const int j = (i + off) % n;
          double fx = 0;
          double fy = 0;
          double fz = 0;
          flops += PairForce(pos, i, j, cfg_.box, cutoff2, &fx, &fy, &fz);
          local_f[static_cast<size_t>(i) * 3 + 0] += fx;
          local_f[static_cast<size_t>(i) * 3 + 1] += fy;
          local_f[static_cast<size_t>(i) * 3 + 2] += fz;
          local_f[static_cast<size_t>(j) * 3 + 0] -= fx;
          local_f[static_cast<size_t>(j) * 3 + 1] -= fy;
          local_f[static_cast<size_t>(j) * 3 + 2] -= fz;
          flops += 6;
        }
      }
      co_await ctx.ComputeFlops(flops);

      // Flush accumulated forces into the shared array, one partition at a
      // time under that partition's lock (paper §4.1).
      for (int q = 0; q < p; ++q) {
        const int part = (me + q) % p;  // Start with self to reduce contention.
        const int pfirst = part * per;
        bool any = false;
        for (int m = pfirst; m < pfirst + per && !any; ++m) {
          any = local_f[static_cast<size_t>(m) * 3] != 0 ||
                local_f[static_cast<size_t>(m) * 3 + 1] != 0 ||
                local_f[static_cast<size_t>(m) * 3 + 2] != 0;
        }
        if (!any) {
          continue;
        }
        co_await ctx.Lock(kLockBase + part);
        co_await ctx.Write(frc_ + static_cast<GlobalAddr>(pfirst) * 24, band);
        double* frc = ctx.Ptr<double>(frc_);
        for (int m = pfirst; m < pfirst + per; ++m) {
          for (int d = 0; d < 3; ++d) {
            frc[m * 3 + d] += local_f[static_cast<size_t>(m) * 3 + d];
          }
        }
        co_await ctx.ComputeFlops(3ll * per);
        co_await ctx.Unlock(kLockBase + part);
      }
    }
    co_await ctx.Barrier(2);

    // Phase 3: integrate own molecules (atomic multi-array grant).
    const std::vector<NodeContext::Range> ranges2 = {{my_frc, band, false}, {my_vel, band, true}, {my_pos, band, true}};
    co_await ctx.Access(ranges2);
    {
      double* pos = ctx.Ptr<double>(pos_);
      double* vel = ctx.Ptr<double>(vel_);
      const double* frc = ctx.Ptr<double>(frc_);
      for (int m = first; m < first + per; ++m) {
        for (int d = 0; d < 3; ++d) {
          vel[m * 3 + d] += frc[m * 3 + d] * cfg_.dt;
          pos[m * 3 + d] += vel[m * 3 + d] * cfg_.dt;
        }
      }
    }
    co_await ctx.ComputeFlops(12ll * per);
    co_await ctx.Barrier(3);
  }
  ctx.SnapshotPhase(cfg_.steps * 2);
}

System::Program WaterNsqApp::Program() {
  return [this](NodeContext& ctx) -> Task<void> { return NodeMain(ctx); };
}

bool WaterNsqApp::Verify(System& sys, std::string* why) {
  const int n = cfg_.molecules;
  if (ref_pos_.empty()) {
    ref_pos_.resize(static_cast<size_t>(n) * 3);
    ref_vel_.resize(static_cast<size_t>(n) * 3);
    std::vector<double> frc(static_cast<size_t>(n) * 3, 0.0);
    InitMolecules(ref_pos_.data(), ref_vel_.data());
    const double cutoff2 = cfg_.cutoff * cfg_.cutoff;
    const int half = n / 2;
    for (int step = 0; step < cfg_.steps; ++step) {
      for (int m = 0; m < n; ++m) {
        for (int d = 0; d < 3; ++d) {
          ref_pos_[static_cast<size_t>(m) * 3 + d] +=
              ref_vel_[static_cast<size_t>(m) * 3 + d] * cfg_.dt;
          frc[static_cast<size_t>(m) * 3 + d] = 0;
        }
      }
      for (int i = 0; i < n; ++i) {
        for (int off = 1; off <= half; ++off) {
          const int j = (i + off) % n;
          double fx = 0;
          double fy = 0;
          double fz = 0;
          PairForce(ref_pos_.data(), i, j, cfg_.box, cutoff2, &fx, &fy, &fz);
          frc[static_cast<size_t>(i) * 3 + 0] += fx;
          frc[static_cast<size_t>(i) * 3 + 1] += fy;
          frc[static_cast<size_t>(i) * 3 + 2] += fz;
          frc[static_cast<size_t>(j) * 3 + 0] -= fx;
          frc[static_cast<size_t>(j) * 3 + 1] -= fy;
          frc[static_cast<size_t>(j) * 3 + 2] -= fz;
        }
      }
      for (int m = 0; m < n; ++m) {
        for (int d = 0; d < 3; ++d) {
          ref_vel_[static_cast<size_t>(m) * 3 + d] += frc[static_cast<size_t>(m) * 3 + d] * cfg_.dt;
          ref_pos_[static_cast<size_t>(m) * 3 + d] +=
              ref_vel_[static_cast<size_t>(m) * 3 + d] * cfg_.dt;
        }
      }
    }
  }

  // Final values live at the owning partition's node. Forces were accumulated
  // in lock-arrival order, so allow for floating-point reassociation noise.
  const int p = sys.config().nodes;
  const int per = n / p;
  for (NodeId node = 0; node < p; ++node) {
    const double* pos = reinterpret_cast<const double*>(
        sys.NodeMemory(node, pos_ + static_cast<GlobalAddr>(node * per) * 24));
    const double* vel = reinterpret_cast<const double*>(
        sys.NodeMemory(node, vel_ + static_cast<GlobalAddr>(node * per) * 24));
    for (int i = 0; i < per * 3; ++i) {
      const size_t ref_idx = static_cast<size_t>(node * per) * 3 + static_cast<size_t>(i);
      const double dp = std::fabs(pos[i] - ref_pos_[ref_idx]);
      const double dv = std::fabs(vel[i] - ref_vel_[ref_idx]);
      if (dp > 1e-7 || dv > 1e-7 || !std::isfinite(pos[i])) {
        if (why != nullptr) {
          *why = "Water-Nsquared: node " + std::to_string(node) + " component " +
                 std::to_string(i) + ": pos " + std::to_string(pos[i]) + " vs " +
                 std::to_string(ref_pos_[ref_idx]);
        }
        return false;
      }
    }
  }
  return true;
}

namespace {
const AppRegistrar kWaterNsqRegistrar("water-nsq",
                                      [](AppScale scale, std::optional<uint64_t> seed) {
                                        WaterNsqConfig cfg;
                                        switch (scale) {
                                          case AppScale::kTiny:
                                            cfg.molecules = 128;
                                            cfg.steps = 2;
                                            break;
                                          case AppScale::kDefault:
                                            cfg.molecules = 2048;
                                            cfg.steps = 3;
                                            break;
                                          case AppScale::kPaper:
                                            cfg.molecules = 4096;
                                            cfg.steps = 3;
                                            break;
                                        }
                                        if (seed) {
                                          cfg.seed = *seed;
                                        }
                                        return std::make_unique<WaterNsqApp>(cfg);
                                      });
}  // namespace

}  // namespace hlrc
