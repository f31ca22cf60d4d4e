#include "src/metrics/histogram.h"

#include <algorithm>
#include <bit>

namespace hlrc {

void Histogram::Merge(const Histogram& o) {
  if (o.count_ == 0) {
    return;
  }
  count_ += o.count_;
  sum_ = SaturatingAdd(sum_, o.sum_);
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<size_t>(b)] += o.buckets_[static_cast<size_t>(b)];
  }
}

int Histogram::BucketOf(int64_t v) {
  if (v <= 0) {
    return 0;
  }
  // 1 + floor(log2(v)); v in [2^(b-1), 2^b - 1] lands in bucket b.
  return 64 - std::countl_zero(static_cast<uint64_t>(v));
}

int64_t Histogram::BucketLow(int b) {
  if (b <= 0) {
    return 0;
  }
  return int64_t{1} << (b - 1);
}

int64_t Histogram::BucketHigh(int b) {
  if (b <= 0) {
    return 0;
  }
  if (b >= kBuckets - 1) {
    return std::numeric_limits<int64_t>::max();
  }
  return (int64_t{1} << b) - 1;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Fractional rank in [0, count]; the covering bucket is the first whose
  // cumulative count reaches it.
  const double target = p / 100.0 * static_cast<double>(count_);
  int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t n = buckets_[static_cast<size_t>(b)];
    if (n == 0) {
      continue;
    }
    const int64_t before = cum;
    cum += n;
    if (static_cast<double>(cum) >= target) {
      double frac = (target - static_cast<double>(before)) / static_cast<double>(n);
      frac = std::clamp(frac, 0.0, 1.0);
      const double lo =
          std::max(static_cast<double>(BucketLow(b)), static_cast<double>(Min()));
      const double hi =
          std::min(static_cast<double>(BucketHigh(b)), static_cast<double>(Max()));
      return lo + frac * std::max(0.0, hi - lo);
    }
  }
  return static_cast<double>(Max());
}

}  // namespace hlrc
