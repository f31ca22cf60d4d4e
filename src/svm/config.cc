#include "src/svm/config.h"

namespace hlrc {

std::string PageSizeError(int64_t page_size, int64_t shared_bytes, int64_t min_bytes) {
  const bool power_of_two = page_size > 0 && (page_size & (page_size - 1)) == 0;
  if (power_of_two && page_size >= min_bytes && page_size <= shared_bytes &&
      shared_bytes % page_size == 0) {
    return "";
  }
  return "--page-size=" + std::to_string(page_size) + ": expected a power of two from " +
         std::to_string(min_bytes) + " to " + std::to_string(shared_bytes);
}

std::string SimConfig::Validate() const {
  if (std::string error = PageSizeError(page_size, shared_bytes); !error.empty()) {
    return error;
  }
  // A piggybacked ack may wait kAckDelay: a timeout at or below it fires
  // before a deferred ack arrives.
  if (Reliable() && network.coalesce && reliability.retry_timeout <= kAckDelay) {
    return "--retry-timeout=" + std::to_string(reliability.retry_timeout / 1000) +
           ": expected more than " + std::to_string(kAckDelay / 1000) + " with --coalesce";
  }
  return "";
}

}  // namespace hlrc
