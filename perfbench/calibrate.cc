// The reference kernel that untraced runs are calibrated against
// (README.md, Calibration). It lives in its own translation unit and uses
// nothing from src/, so a change to the simulator cannot change its cost.
#include <chrono>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "perfbench/probe.h"

namespace perfbench {
namespace {

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct XorShift {
  uint64_t s = 88172645463325252ull;
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

}  // namespace

Calibration Calibrate() {
  XorShift rng;
  uint64_t check = 0;

  // A random cycle over 32 MiB, built outside the timing.
  constexpr uint32_t kSlots = 8u << 20;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.Next() % i]);  // Sattolo: a single cycle.
  }
  constexpr int kN = 192;
  std::vector<double> a(kN * kN), b(kN * kN), c(kN * kN, 0.0);
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = static_cast<double>(rng.Next() & 1023) / 1024.0;
    b[i] = static_cast<double>(rng.Next() & 1023) / 1024.0;
  }

  const double t0 = NowS();
  // Dependent loads that miss the private caches, as the protocol's page
  // tables and interval logs do.
  uint32_t p = 0;
  for (int i = 0; i < 800000; ++i) p = next[p];
  check += p;
  // Node-based tree churn: allocation and pointer chasing, as the event
  // queue and the protocol's std::maps do.
  std::map<uint64_t, uint64_t> tree;
  for (uint64_t i = 0; i < 150000; ++i) {
    tree[rng.Next() & 0x3ffff] = i;
    if (i & 1) tree.erase(rng.Next() & 0x3ffff);
  }
  check += tree.size();
  // Cache-resident floating point, as the apps' kernels and Verify do.
  for (int rep = 0; rep < 20; ++rep) {
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const double x = a[i * kN + k];
        for (int j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
      }
    }
  }
  check += static_cast<uint64_t>(c[kN * kN / 2]);
  // Fresh pages filled and copied: page faults and memory bandwidth, as
  // the runs' first touch of shared memory and the summary export.
  {
    std::vector<char> fresh(48u << 20, static_cast<char>(p));
    std::vector<char> copy(fresh);
    check += static_cast<unsigned char>(copy[p % copy.size()]);
  }
  return {NowS() - t0, check};
}

}  // namespace perfbench
