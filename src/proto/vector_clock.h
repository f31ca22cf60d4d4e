// Vector timestamps used to order intervals (happen-before) across nodes.
#ifndef SRC_PROTO_VECTOR_CLOCK_H_
#define SRC_PROTO_VECTOR_CLOCK_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace hlrc {

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(int nodes) : v_(static_cast<size_t>(nodes), 0) {}

  int size() const { return static_cast<int>(v_.size()); }

  uint32_t Get(NodeId n) const { return v_[static_cast<size_t>(n)]; }
  void Set(NodeId n, uint32_t val) { v_[static_cast<size_t>(n)] = val; }
  void Bump(NodeId n) { ++v_[static_cast<size_t>(n)]; }

  // Componentwise maximum.
  void MergeWith(const VectorClock& o) {
    HLRC_CHECK(o.size() == size());
    for (size_t i = 0; i < v_.size(); ++i) {
      if (o.v_[i] > v_[i]) {
        v_[i] = o.v_[i];
      }
    }
  }

  // True if every component of *this is <= the corresponding one in o.
  bool DominatedBy(const VectorClock& o) const {
    HLRC_CHECK(o.size() == size());
    for (size_t i = 0; i < v_.size(); ++i) {
      if (v_[i] > o.v_[i]) {
        return false;
      }
    }
    return true;
  }

  bool operator==(const VectorClock& o) const { return v_ == o.v_; }

  // True if this happens-before o: dominated and not equal.
  bool HappensBefore(const VectorClock& o) const { return DominatedBy(o) && !(*this == o); }

  // True if neither happens-before the other (concurrent, unequal).
  bool ConcurrentWith(const VectorClock& o) const {
    return !DominatedBy(o) && !o.DominatedBy(*this);
  }

  // Deterministic total-order tiebreak consistent with happens-before:
  // HappensBefore(o) implies *this < o lexicographically-by-sum-then-lex.
  bool TotalOrderLess(const VectorClock& o) const {
    int64_t sa = 0;
    int64_t sb = 0;
    for (size_t i = 0; i < v_.size(); ++i) {
      sa += v_[i];
      sb += o.v_[i];
    }
    if (sa != sb) {
      return sa < sb;
    }
    return v_ < o.v_;
  }

  // Sum of the components: the first key of TotalOrderLess.
  int64_t Sum() const {
    int64_t sum = 0;
    for (uint32_t c : v_) {
      sum += c;
    }
    return sum;
  }

  // Wire/storage footprint: 4 bytes per component.
  int64_t EncodedSize() const { return static_cast<int64_t>(v_.size()) * 4; }

  const std::vector<uint32_t>& raw() const { return v_; }

 private:
  std::vector<uint32_t> v_;
};

}  // namespace hlrc

#endif  // SRC_PROTO_VECTOR_CLOCK_H_
