// Log2-bucketed latency/size histogram.
//
// Recording is O(1): one bit-scan to find the bucket plus a handful of
// increments, cheap enough to leave compiled into every hot path behind a
// null-pointer check. Buckets are powers of two (bucket 0 holds the value 0,
// bucket b holds [2^(b-1), 2^b - 1]), which keeps the memory footprint fixed
// (64 buckets cover the full int64 range) while preserving relative error
// under a factor of two at every scale — a p99.9 of 12 ms is distinguishable
// from a p50 of 60 us without storing a single sample. Exact min/max and the
// sum are kept alongside the buckets so averages and tails are not
// quantized; the sum is exact until it saturates at INT64_MAX. Merge() makes
// per-node recordings aggregatable without precision loss.
#ifndef SRC_METRICS_HISTOGRAM_H_
#define SRC_METRICS_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace hlrc {

class Histogram {
 public:
  static constexpr int kBuckets = 64;

  // Records one value. Negative values clamp to 0 (latencies are never
  // negative in a correct simulation; clamping keeps the recorder total).
  void Record(int64_t v) {
    if (v < 0) {
      v = 0;
    }
    ++count_;
    sum_ = SaturatingAdd(sum_, v);
    if (v < min_) {
      min_ = v;
    }
    if (v > max_) {
      max_ = v;
    }
    ++buckets_[static_cast<size_t>(BucketOf(v))];
  }

  // Merging two disjoint recordings yields exactly the histogram of the
  // combined recording (bucket counts, count, sum, min, max all exact; the
  // sum saturates at INT64_MAX as in Record).
  void Merge(const Histogram& o);

  int64_t Count() const { return count_; }
  int64_t Sum() const { return sum_; }
  int64_t Min() const { return count_ == 0 ? 0 : min_; }
  int64_t Max() const { return count_ == 0 ? 0 : max_; }
  bool Empty() const { return count_ == 0; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Estimated value at percentile p (0..100): linear interpolation inside the
  // covering bucket, clamped to the exact [Min, Max]. Percentile(0) == Min()
  // and Percentile(100) == Max(); the estimate is monotone in p.
  double Percentile(double p) const;

  const std::array<int64_t, kBuckets>& buckets() const { return buckets_; }

  // Bucket index of a value: 0 for 0, else 1 + floor(log2(v)), capped.
  static int BucketOf(int64_t v);
  // Inclusive value range covered by bucket b.
  static int64_t BucketLow(int b);
  static int64_t BucketHigh(int b);

 private:
  // Both operands are non-negative, so only INT64_MAX can be crossed.
  static int64_t SaturatingAdd(int64_t a, int64_t b) {
    int64_t sum;
    return __builtin_add_overflow(a, b, &sum) ? std::numeric_limits<int64_t>::max() : sum;
  }

  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = std::numeric_limits<int64_t>::max();
  int64_t max_ = std::numeric_limits<int64_t>::min();
  std::array<int64_t, kBuckets> buckets_{};
};

}  // namespace hlrc

#endif  // SRC_METRICS_HISTOGRAM_H_
