#include "src/mem/page_table.h"

#include <cstring>

namespace hlrc {
namespace {

int PagesOf(int64_t space_bytes, int64_t page_size) {
  HLRC_CHECK(page_size > 0 && (page_size & (page_size - 1)) == 0);
  HLRC_CHECK(space_bytes > 0 && space_bytes % page_size == 0);
  return static_cast<int>(space_bytes / page_size);
}

}  // namespace

PageTable::PageTable(int64_t space_bytes, int64_t page_size)
    : space_bytes_(space_bytes),
      page_size_(page_size),
      num_pages_(PagesOf(space_bytes, page_size)),
      data_(static_cast<size_t>(space_bytes)),
      states_(static_cast<size_t>(num_pages_)) {}

void PageTable::MakeTwin(PageId p) {
  PageState& st = State(p);
  HLRC_CHECK(st.twin == nullptr);
  if (free_twins_.empty()) {
    twin_buffers_.push_back(std::make_unique<std::byte[]>(static_cast<size_t>(page_size_)));
    st.twin = twin_buffers_.back().get();
  } else {
    st.twin = free_twins_.back();
    free_twins_.pop_back();
  }
  std::memcpy(st.twin, PageData(p), static_cast<size_t>(page_size_));
}

void PageTable::DropTwin(PageId p) {
  PageState& st = State(p);
  if (st.twin != nullptr) {
    free_twins_.push_back(st.twin);
    st.twin = nullptr;
  }
}

}  // namespace hlrc
