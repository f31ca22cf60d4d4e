// Per-node software MMU.
//
// Each node mirrors the whole shared address space in one contiguous
// anonymous mmap region, so application code can use ordinary pointers and
// multi-page arrays stay contiguous. Pages the node never touches stay
// unbacked (the kernel lazily zero-fills), which keeps 64-node simulations
// cheap. Protection is checked in software by the SVM access layer; there is
// no hardware mprotect involved.
#ifndef SRC_MEM_PAGE_TABLE_H_
#define SRC_MEM_PAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace hlrc {

enum class PageProt : uint8_t {
  kNone = 0,       // Any access faults.
  kRead = 1,       // Writes fault.
  kReadWrite = 2,  // No faults.
};

class PageState {
 public:
  PageProt prot() const { return prot_; }

  // Whether the protection lets an access of this kind through without a
  // fault.
  bool Grants(bool write) const {
    return write ? prot_ == PageProt::kReadWrite : prot_ != PageProt::kNone;
  }

  // Twin: clean snapshot taken at the first write of the current interval.
  std::unique_ptr<std::byte[]> twin;
  // Whether the local frame holds a (possibly stale) copy of the page. LRC
  // keeps stale copies across invalidation so diffs can be applied in place;
  // a page with no copy requires a full-page fetch.
  bool has_copy = true;

 private:
  friend class PageTable;  // PageTable::SetProt is the only writer of prot_.
  // Next to has_copy, so that a state stays 16 bytes: every node holds one
  // per page of the shared space.
  PageProt prot_ = PageProt::kRead;
};
static_assert(sizeof(PageState) <= 16, "one PageState per page per node");

class PageTable {
 public:
  PageTable(int64_t space_bytes, int64_t page_size);
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  int64_t page_size() const { return page_size_; }
  int num_pages() const { return num_pages_; }
  int64_t space_bytes() const { return space_bytes_; }

  PageId PageOf(GlobalAddr addr) const {
    HLRC_CHECK(addr < static_cast<GlobalAddr>(space_bytes_));
    return static_cast<PageId>(addr / static_cast<GlobalAddr>(page_size_));
  }

  std::byte* PageData(PageId p) {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return base_ + static_cast<int64_t>(p) * page_size_;
  }
  const std::byte* PageData(PageId p) const {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return base_ + static_cast<int64_t>(p) * page_size_;
  }

  std::byte* AddrData(GlobalAddr addr) {
    HLRC_CHECK(addr < static_cast<GlobalAddr>(space_bytes_));
    return base_ + addr;
  }

  PageState& State(PageId p) {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return states_[static_cast<size_t>(p)];
  }
  const PageState& State(PageId p) const {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return states_[static_cast<size_t>(p)];
  }

  // The only writer of a page's protection, so that prot_losses() sees
  // every change.
  void SetProt(PageId p, PageProt prot) {
    PageState& st = State(p);
    if (prot < st.prot_) {
      ++prot_losses_;
    }
    st.prot_ = prot;
  }

  // Protection changes so far that took access away from a page. A grant
  // (ProtocolNode::EnsureAccessSpans) compares it across a fault: unchanged,
  // every page the grant already passed still grants its access.
  uint64_t prot_losses() const { return prot_losses_; }

  // Snapshots the current page contents as the twin. The caller accounts the
  // cost; this just does the copy and the memory bookkeeping. Twin buffers
  // are recycled through a per-node free list (docs/PERFORMANCE.md): twin
  // churn at interval boundaries is the hottest allocation site in the
  // simulator, and the pool's steady state is the run's peak concurrent twin
  // count, so after warm-up MakeTwin/DropTwin never touch the allocator.
  void MakeTwin(PageId p);
  void DropTwin(PageId p);
  bool HasTwin(PageId p) const { return State(p).twin != nullptr; }

  // Bytes currently held in twins (protocol memory accounting).
  int64_t TwinBytes() const { return twin_count_ * page_size_; }
  int64_t twin_count() const { return twin_count_; }

  // Arena observability: buffers parked for reuse, and how many MakeTwin
  // calls were served from the pool vs the allocator.
  int64_t twin_pool_size() const { return static_cast<int64_t>(twin_pool_.size()); }
  int64_t twin_pool_hits() const { return twin_pool_hits_; }

 private:
  int64_t space_bytes_;
  int64_t page_size_;
  int num_pages_;
  std::byte* base_;  // mmap'ed; owned.
  std::vector<PageState> states_;
  uint64_t prot_losses_ = 0;
  int64_t twin_count_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> twin_pool_;
  int64_t twin_pool_hits_ = 0;
};

}  // namespace hlrc

#endif  // SRC_MEM_PAGE_TABLE_H_
