#include "src/common/zero_array.h"

#include <sys/mman.h>

#include <cstdlib>

namespace hlrc {
namespace {

// Below this size an array comes from the heap, zeroed there: mapping and
// unmapping it costs more than the memory it could leave unbacked. svmcheck
// builds thousands of small page tables on several threads, where every
// munmap stalls the others. The value is glibc's default mmap threshold,
// set for the same trade.
constexpr size_t kMinMappedBytes = size_t{128} << 10;

}  // namespace

std::byte* MapZeroPages(size_t bytes) {
  if (bytes < kMinMappedBytes) {
    void* mem = std::calloc(bytes, 1);
    HLRC_CHECK_MSG(mem != nullptr, "calloc of %zu bytes failed", bytes);
    return static_cast<std::byte*>(mem);
  }
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  HLRC_CHECK_MSG(mem != MAP_FAILED, "mmap of %zu bytes failed", bytes);
  // Base pages only, whatever the host's transparent huge page policy: a
  // huge page would back 2 MiB around the first element written.
  ::madvise(mem, bytes, MADV_NOHUGEPAGE);
  return static_cast<std::byte*>(mem);
}

void UnmapZeroPages(std::byte* mem, size_t bytes) {
  if (bytes < kMinMappedBytes) {
    std::free(mem);
  } else {
    ::munmap(mem, bytes);
  }
}

}  // namespace hlrc
