// Fixed-size arrays in lazily zero-filled anonymous memory.
//
// The kernel backs a page of the array only when something first writes to
// it, so an array with one element per page of the whole shared space costs
// resident memory, and construction time, only for the pages a run touches.
// An array below 128 KiB comes zeroed from the heap instead (zero_array.cc).
// The array runs no constructor: the element type must be trivially
// copyable, and all zero bytes when value-initialized, so that an element
// nothing has written reads as T{}.
#ifndef SRC_COMMON_ZERO_ARRAY_H_
#define SRC_COMMON_ZERO_ARRAY_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

#include "src/common/check.h"

namespace hlrc {

// The mapping under a ZeroArray: `bytes` of zero-filled anonymous memory,
// backed page by page on first write, and its release.
std::byte* MapZeroPages(size_t bytes);
void UnmapZeroPages(std::byte* mem, size_t bytes);

// Whether a value-initialized T is all zero bytes, padding aside: T{} built
// over zeroed storage leaves every byte zero.
template <typename T>
bool FreshIsZeroBytes() {
  alignas(T) std::byte bytes[sizeof(T)] = {};
  ::new (static_cast<void*>(bytes)) T{};
  const std::byte zero[sizeof(T)] = {};
  return std::memcmp(bytes, zero, sizeof(T)) == 0;
}

template <typename T>
class ZeroArray {
  static_assert(std::is_trivially_copyable_v<T>, "a ZeroArray runs no constructor");

 public:
  explicit ZeroArray(size_t size)
      : data_(reinterpret_cast<T*>(MapZeroPages(size * sizeof(T)))), size_(size) {
    HLRC_CHECK(FreshIsZeroBytes<T>());
  }
  ~ZeroArray() { UnmapZeroPages(reinterpret_cast<std::byte*>(data_), size_ * sizeof(T)); }
  ZeroArray(const ZeroArray&) = delete;
  ZeroArray& operator=(const ZeroArray&) = delete;

  size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  T* data_;
  size_t size_;
};

}  // namespace hlrc

#endif  // SRC_COMMON_ZERO_ARRAY_H_
