// MetricsRegistry: named per-node counters and histograms.
//
// The registry is the slow path: instruments are resolved by name once, at
// enable time, and the returned raw pointers are stable for the registry's
// lifetime (per-name storage is sized to the node count on first use and
// never moves). Hot paths then record through the pointer — an increment or
// a Histogram::Record, no map lookups, no allocation.
#ifndef SRC_METRICS_REGISTRY_H_
#define SRC_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/metrics/histogram.h"

namespace hlrc {

class MetricsRegistry {
 public:
  explicit MetricsRegistry(int nodes) : nodes_(nodes) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  int nodes() const { return nodes_; }

  // Resolve (creating on first use) the per-node instrument. Pointers stay
  // valid until the registry is destroyed.
  int64_t* Counter(const std::string& name, NodeId node);
  Histogram* Histo(const std::string& name, NodeId node);

  // Export iteration: name -> per-node values, ordered by name.
  const std::map<std::string, std::unique_ptr<std::vector<int64_t>>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<std::vector<Histogram>>>& histograms() const {
    return histograms_;
  }

  // All nodes' recordings of one histogram merged into a single distribution.
  Histogram MergedHisto(const std::string& name) const;
  int64_t CounterTotal(const std::string& name) const;

 private:
  int nodes_;
  // unique_ptr indirection keeps the vectors' addresses stable under map
  // rebalancing; each vector is sized to nodes_ at creation and never resized.
  std::map<std::string, std::unique_ptr<std::vector<int64_t>>> counters_;
  std::map<std::string, std::unique_ptr<std::vector<Histogram>>> histograms_;
};

}  // namespace hlrc

#endif  // SRC_METRICS_REGISTRY_H_
