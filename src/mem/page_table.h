// Per-node software MMU.
//
// Each node mirrors the whole shared address space in one contiguous
// array, so application code can use ordinary pointers and multi-page arrays
// stay contiguous, and keeps one PageState per page of that space. Both live
// in lazily zero-filled anonymous memory (ZeroArray): pages the node never
// touches stay unbacked, data and state alike, which keeps 64-node
// simulations cheap. That is why a fresh PageState is all zero bytes: it
// stores its protection relative to kRead and its copy flag inverted.
// Protection is checked in software by the SVM access layer; there is no
// hardware mprotect involved.
#ifndef SRC_MEM_PAGE_TABLE_H_
#define SRC_MEM_PAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/common/zero_array.h"

namespace hlrc {

enum class PageProt : uint8_t {
  kNone = 0,       // Any access faults.
  kRead = 1,       // Writes fault.
  kReadWrite = 2,  // No faults.
};

class PageState {
 public:
  PageProt prot() const { return static_cast<PageProt>(prot_ + kReadLevel); }

  // Whether the protection lets an access of this kind through without a
  // fault.
  bool Grants(bool write) const { return write ? prot_ > 0 : prot_ >= 0; }

  // Twin: clean snapshot taken at the first write of the current interval, in
  // a buffer of the table's twin pool; null when the page has none.
  std::byte* twin = nullptr;
  // Whether the local frame holds no copy of the page. LRC keeps stale copies
  // across invalidation so diffs can be applied in place; a page with no copy
  // requires a full-page fetch.
  bool no_copy = false;
  // Whether the page is in the node's open-interval dirty set
  // (ProtocolNode::MarkDirty).
  bool dirty = false;

 private:
  friend class PageTable;  // PageTable::SetProt is the only writer of prot_.
  static constexpr int kReadLevel = static_cast<int>(PageProt::kRead);
  // The protection minus kRead: -1, 0 or 1.
  int8_t prot_ = 0;
};
static_assert(sizeof(PageState) <= 16, "one PageState per page per node");

class PageTable {
 public:
  PageTable(int64_t space_bytes, int64_t page_size);

  int64_t page_size() const { return page_size_; }
  int num_pages() const { return num_pages_; }
  int64_t space_bytes() const { return space_bytes_; }

  PageId PageOf(GlobalAddr addr) const {
    HLRC_CHECK(addr < static_cast<GlobalAddr>(space_bytes_));
    return static_cast<PageId>(addr / static_cast<GlobalAddr>(page_size_));
  }

  std::byte* PageData(PageId p) {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return data_.data() + static_cast<int64_t>(p) * page_size_;
  }
  const std::byte* PageData(PageId p) const {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return data_.data() + static_cast<int64_t>(p) * page_size_;
  }

  std::byte* AddrData(GlobalAddr addr) {
    HLRC_CHECK(addr < static_cast<GlobalAddr>(space_bytes_));
    return data_.data() + addr;
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
    const auto level = static_cast<int8_t>(static_cast<int>(prot) - PageState::kReadLevel);
    if (level < st.prot_) {
      ++prot_losses_;
    }
    st.prot_ = level;
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
  int64_t TwinBytes() const {
    return static_cast<int64_t>(twin_buffers_.size() - free_twins_.size()) * page_size_;
  }

 private:
  int64_t space_bytes_;
  int64_t page_size_;
  int num_pages_;
  ZeroArray<std::byte> data_;
  ZeroArray<PageState> states_;
  uint64_t prot_losses_ = 0;
  // The twin pool: every buffer the table allocated, and those not in use.
  std::vector<std::unique_ptr<std::byte[]>> twin_buffers_;
  std::vector<std::byte*> free_twins_;
};

}  // namespace hlrc

#endif  // SRC_MEM_PAGE_TABLE_H_
