// Per-page heat profiler.
//
// Attributes protocol activity to individual shared pages so a run can be
// ranked by page: faults (read/write split), page fetches and fetched bytes,
// diff bytes created for and applied to the page, and the set of distinct
// writing nodes (a page with many writers is a false-sharing suspect at any
// page size, the effect the paper's §4.8 SOR experiment isolates). All hooks
// are O(1) increments; storage is a flat array indexed by PageId, one
// PageHeat for every page of the shared space, in lazily zero-filled memory
// (ZeroArray), so only the pages a run touches take memory. A fresh PageHeat
// is therefore all zero bytes.
#ifndef SRC_METRICS_HEAT_H_
#define SRC_METRICS_HEAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/common/zero_array.h"

namespace hlrc {

struct PageHeat {
  int64_t read_faults = 0;
  int64_t write_faults = 0;
  int64_t fetches = 0;
  int64_t fetch_bytes = 0;
  int64_t diff_bytes_created = 0;   // update bytes produced for this page
  int64_t diffs_applied = 0;
  int64_t diff_bytes_applied = 0;
  // One bit per writing node (node & 63). Exact for <= 64 nodes — the paper's
  // full Paragon configuration — and a conservative lower bound beyond that.
  uint64_t writer_mask = 0;

  int64_t Faults() const { return read_faults + write_faults; }
  int Writers() const { return std::popcount(writer_mask); }
  // Ranking key: protocol work the page caused.
  int64_t Score() const {
    return Faults() + fetches + diffs_applied + (fetch_bytes + diff_bytes_applied) / 64;
  }
};

class PageHeatProfiler {
 public:
  explicit PageHeatProfiler(int64_t num_pages)
      : pages_(static_cast<size_t>(num_pages)) {}

  void OnFault(PageId page, bool is_write) {
    PageHeat& h = At(page);
    if (is_write) {
      ++h.write_faults;
    } else {
      ++h.read_faults;
    }
  }
  void OnWrite(PageId page, NodeId writer) {
    At(page).writer_mask |= uint64_t{1} << (static_cast<unsigned>(writer) & 63u);
  }
  void OnFetch(PageId page, int64_t bytes) {
    PageHeat& h = At(page);
    ++h.fetches;
    h.fetch_bytes += bytes;
  }
  void OnDiffCreated(PageId page, int64_t bytes) { At(page).diff_bytes_created += bytes; }
  void OnDiffApplied(PageId page, int64_t bytes) {
    PageHeat& h = At(page);
    ++h.diffs_applied;
    h.diff_bytes_applied += bytes;
  }

  int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }
  const PageHeat& page(PageId p) const { return pages_[static_cast<size_t>(p)]; }

  // Pages with nonzero score, hottest first, at most `n`.
  struct HotPage {
    PageId page;
    PageHeat heat;
  };
  std::vector<HotPage> TopN(size_t n) const;

 private:
  PageHeat& At(PageId page) { return pages_[static_cast<size_t>(page)]; }

  ZeroArray<PageHeat> pages_;
};

}  // namespace hlrc

#endif  // SRC_METRICS_HEAT_H_
