// Dense per-page protocol state, indexed by PageId.
//
// The state every write notice touches (LRC's pending notices and covered
// interval ids, HLRC's required and applied flush timestamps and its home
// overrides) lives in arrays instead of hash maps: one index instead of a
// hash probe on the write-notice and fault paths. Each array grows on demand
// to the highest page written through it — not to the whole shared space.
//
// A slot the protocol never touched holds the array's fill value, which plays
// the part of "no entry" (an empty list, kInvalidNode). The protocols keep
// their own entry counts where Table 6's memory model charges per entry.
#ifndef SRC_PROTO_PAGE_ARRAY_H_
#define SRC_PROTO_PAGE_ARRAY_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace hlrc {

template <typename T>
class PageArray {
 public:
  explicit PageArray(T fill = T()) : fill_(std::move(fill)) {}

  // The slot of `page`, growing the array to cover it.
  T& operator[](PageId page) {
    HLRC_DCHECK(page >= 0);
    const size_t i = static_cast<size_t>(page);
    if (i >= slots_.size()) {
      slots_.resize(i + 1, fill_);
    }
    return slots_[i];
  }

  // The slot of `page`, or the fill value for a page past the array.
  const T& Get(PageId page) const {
    HLRC_DCHECK(page >= 0);
    const size_t i = static_cast<size_t>(page);
    return i < slots_.size() ? slots_[i] : fill_;
  }

 private:
  T fill_;
  std::vector<T> slots_;
};

}  // namespace hlrc

#endif  // SRC_PROTO_PAGE_ARRAY_H_
