#include "src/apps/water_nsquared.h"

#include <cmath>
#include <cstring>

#include "src/common/rng.h"

namespace hlrc {
namespace {

constexpr int kLockBase = 100;  // Per-partition force locks.

}  // namespace

int64_t WaterPairRows(const double* pos, int n, int first, int count, double box,
                      double cutoff2, double* f) {
  using V2 = double __attribute__((vector_size(16)));
  const int half = n / 2;
  // Pass 1 takes two pairs at a time, so a row has an even number of lanes;
  // with n/2 odd the last one reads one molecule past the row, which the
  // window's extra slot holds. Pass 2 never reads that lane.
  const int lanes = (half + 1) & ~1;
  const int width = count + half + 1;
  std::vector<double> scratch(3 * static_cast<size_t>(width) + 4 * static_cast<size_t>(lanes));
  double* wx = scratch.data();
  double* wy = wx + width;
  double* wz = wy + width;
  double* row_dx = wz + width;
  double* row_dy = row_dx + lanes;
  double* row_dz = row_dy + lanes;
  double* row_r2 = row_dz + lanes;
  for (int w = 0; w < width - 1; ++w) {
    const int m = first + w < n ? first + w : first + w - n;
    wx[w] = pos[m * 3 + 0];
    wy[w] = pos[m * 3 + 1];
    wz[w] = pos[m * 3 + 2];
  }

  // md::Wrap on two lanes: both candidates are computed, then one is picked
  // by the same two comparisons.
  const V2 vbox = {box, box};
  const V2 upper = {box / 2, box / 2};
  const V2 lower = {-box / 2, -box / 2};
  const auto wrap = [&](V2 d) { return d > upper ? d - vbox : (d < lower ? d + vbox : d); };
  const auto load = [](const double* p) {
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };

  int64_t accepted = 0;
  for (int r = 0; r < count; ++r) {
    const int i = first + r;
    const V2 xi = {wx[r], wx[r]};
    const V2 yi = {wy[r], wy[r]};
    const V2 zi = {wz[r], wz[r]};
    for (int k = 0; k < lanes; k += 2) {
      const V2 dx = wrap(xi - load(wx + r + 1 + k));
      const V2 dy = wrap(yi - load(wy + r + 1 + k));
      const V2 dz = wrap(zi - load(wz + r + 1 + k));
      const V2 r2 = dx * dx + dy * dy + dz * dz;
      std::memcpy(row_dx + k, &dx, sizeof dx);
      std::memcpy(row_dy + k, &dy, sizeof dy);
      std::memcpy(row_dz + k, &dz, sizeof dz);
      std::memcpy(row_r2 + k, &r2, sizeof r2);
    }

    // A rejected pair's force is +0.0: subtracting it leaves f[j] as it is,
    // and adding it leaves f[i] as it is except that -0.0 becomes +0.0. So
    // f[i] takes one + 0.0 wherever rejected pairs came since its last add.
    double* fi = f + static_cast<size_t>(i) * 3;
    double ax = fi[0];
    double ay = fi[1];
    double az = fi[2];
    int next = 0;  // The lane after the last accepted pair.
    for (int k = 0; k < half; ++k) {
      const double r2 = row_r2[k];
      if (r2 >= cutoff2 || r2 < 1e-12) {
        continue;
      }
      if (k > next) {
        ax += 0.0;
        ay += 0.0;
        az += 0.0;
      }
      next = k + 1;
      ++accepted;
      // md::PairForce's force, operation for operation.
      const double inv2 = 1.0 / (r2 + 1.0);
      const double inv6 = inv2 * inv2 * inv2;
      const double window = 1.0 - r2 / cutoff2;
      const double mag = 8.0 * inv6 * (2.0 * inv6 - 1.0) * inv2 * window * window;
      const double fx = mag * row_dx[k];
      const double fy = mag * row_dy[k];
      const double fz = mag * row_dz[k];
      ax += fx;
      ay += fy;
      az += fz;
      const int j = i + 1 + k < n ? i + 1 + k : i + 1 + k - n;
      double* fj = f + static_cast<size_t>(j) * 3;
      fj[0] -= fx;
      fj[1] -= fy;
      fj[2] -= fz;
    }
    if (half > next) {
      ax += 0.0;
      ay += 0.0;
      az += 0.0;
    }
    fi[0] = ax;
    fi[1] = ay;
    fi[2] = az;
  }
  return 18 * static_cast<int64_t>(count) * half + 28 * accepted;
}

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
      co_await ctx.ComputeFlops(WaterPairRows(ctx.Ptr<double>(pos_), n, first, per, cfg_.box,
                                              cutoff2, local_f.data()));

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
    for (int step = 0; step < cfg_.steps; ++step) {
      for (int m = 0; m < n; ++m) {
        for (int d = 0; d < 3; ++d) {
          ref_pos_[static_cast<size_t>(m) * 3 + d] +=
              ref_vel_[static_cast<size_t>(m) * 3 + d] * cfg_.dt;
          frc[static_cast<size_t>(m) * 3 + d] = 0;
        }
      }
      WaterPairRows(ref_pos_.data(), n, 0, n, cfg_.box, cutoff2, frc.data());
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
      const bool pos_bad = dp > 1e-7 || !std::isfinite(pos[i]);
      if (pos_bad || dv > 1e-7) {
        if (why != nullptr) {
          *why = std::string("Water-Nsquared: ") + (pos_bad ? "position" : "velocity") +
                 " of molecule " + std::to_string(node * per + i / 3) + ", dim " +
                 std::to_string(i % 3) + " (node " + std::to_string(node) + "): " +
                 (pos_bad ? GotWant(pos[i], ref_pos_[ref_idx])
                          : GotWant(vel[i], ref_vel_[ref_idx]));
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
