#include "src/mem/diff.h"

#include <cstring>

#include "src/common/check.h"

namespace hlrc {
namespace {

static_assert(kDiffWordBytes == sizeof(uint64_t));

// Word equality via memcpy'd integer loads: compiles to one aligned load per
// side (offsets are word-multiples into word-aligned buffers) without the
// call overhead and byte-wise tail handling of per-word memcmp, and is
// strict-aliasing- and sanitizer-clean.
inline bool SameWord(const std::byte* a, const std::byte* b) {
  uint64_t x, y;
  std::memcpy(&x, a, sizeof(x));
  std::memcpy(&y, b, sizeof(y));
  return x == y;
}

inline void AppendRun(Diff* out, int64_t start, int64_t length, const std::byte* current) {
  DiffRun run;
  run.offset = static_cast<uint32_t>(start);
  run.length = static_cast<uint32_t>(length);
  run.data_offset = static_cast<uint32_t>(out->data.size());
  out->data.insert(out->data.end(), current + start, current + start + length);
  out->runs.push_back(run);
}

// Scans [0, page_bytes) one word at a time, producing maximal runs of
// differing words — the exact run structure of CreateDiffReference.
void ScanDiff(const std::byte* twin, const std::byte* current, int64_t page_bytes, Diff* out) {
  int64_t off = 0;
  while (off < page_bytes) {
    while (off < page_bytes && SameWord(twin + off, current + off)) {
      off += kDiffWordBytes;
    }
    if (off >= page_bytes) {
      break;
    }
    const int64_t run_start = off;
    while (off < page_bytes && !SameWord(twin + off, current + off)) {
      off += kDiffWordBytes;
    }
    AppendRun(out, run_start, off - run_start, current);
  }
}

int64_t ComputeEncodedSize(const Diff& d) {
  return Diff::kHeaderBytes + static_cast<int64_t>(d.runs.size()) * Diff::kRunHeaderBytes +
         d.DataBytes();
}

}  // namespace

int64_t Diff::EncodedSize() const {
  if (cached_encoded_size >= 0) {
    HLRC_DCHECK(cached_encoded_size == ComputeEncodedSize(*this));
    return cached_encoded_size;
  }
  return ComputeEncodedSize(*this);
}

Diff CreateDiff(PageId page, const std::byte* twin, const std::byte* current,
                int64_t page_bytes) {
  HLRC_CHECK(page_bytes % kDiffWordBytes == 0);

  Diff diff;
  diff.page = page;
  // Clean-page short-circuit: at interval close most candidate pages were
  // written but unchanged (or touched sparsely), and one whole-page memcmp
  // resolves the common all-clean case at memory bandwidth.
  if (std::memcmp(twin, current, static_cast<size_t>(page_bytes)) == 0) {
    diff.cached_encoded_size = ComputeEncodedSize(diff);
    return diff;
  }
  diff.runs.reserve(8);
  ScanDiff(twin, current, page_bytes, &diff);
  diff.cached_encoded_size = ComputeEncodedSize(diff);
  return diff;
}

Diff CreateDiffReference(PageId page, const std::byte* twin, const std::byte* current,
                         int64_t page_bytes) {
  HLRC_CHECK(page_bytes % kDiffWordBytes == 0);

  Diff diff;
  diff.page = page;
  int64_t run_start = -1;
  for (int64_t off = 0; off <= page_bytes; off += kDiffWordBytes) {
    const bool differs =
        off < page_bytes && std::memcmp(twin + off, current + off, kDiffWordBytes) != 0;
    if (differs) {
      if (run_start < 0) {
        run_start = off;
      }
    } else if (run_start >= 0) {
      AppendRun(&diff, run_start, off - run_start, current);
      run_start = -1;
    }
  }
  diff.cached_encoded_size = ComputeEncodedSize(diff);
  return diff;
}

void ApplyDiff(const Diff& diff, std::byte* target, int64_t page_bytes) {
  for (const DiffRun& r : diff.runs) {
    HLRC_CHECK(static_cast<int64_t>(r.offset) + static_cast<int64_t>(r.length) <= page_bytes);
    std::memcpy(target + r.offset, diff.RunData(r), r.length);
  }
}

}  // namespace hlrc
